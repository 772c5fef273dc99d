package metrics

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/sim"
)

// csvHeader is the stable schema of the time-series CSV dump. The
// metrics-smoke CI target validates files against it.
var csvHeader = []string{
	"run", "sample", "time_us", "resource", "kind",
	"occupancy", "ops", "bytes", "busy_us", "wait_us", "stalls",
}

// CSVHeader returns a copy of the CSV schema (for validators).
func CSVHeader() []string {
	return append([]string(nil), csvHeader...)
}

// Source is the sampler side of the exporters: a recorded time axis plus
// per-resource series in deterministic (sorted) order. Both the
// single-engine Sampler and the cluster MultiSampler satisfy it, so one
// CSV/trace-counter/attribution pipeline serves both.
type Source interface {
	Samples() int
	Time(i int) sim.Time
	Series() []*Series
}

// CSVWriter streams one or more runs' sampler series as CSV: one row per
// (sample instant, resource), resources in sorted registry order within
// each sample so the output is diffable.
type CSVWriter struct {
	cw          *csv.Writer
	wroteHeader bool
}

// NewCSVWriter wraps w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{cw: csv.NewWriter(w)}
}

// WriteRun appends every sample of one run, labelled run in the first
// column. The header is written once, before the first row.
func (c *CSVWriter) WriteRun(run string, s Source) error {
	if !c.wroteHeader {
		if err := c.cw.Write(csvHeader); err != nil {
			return err
		}
		c.wroteHeader = true
	}
	series := s.Series() // sorted by name
	rec := make([]string, len(csvHeader))
	for i := 0; i < s.Samples(); i++ {
		sample := strconv.Itoa(i)
		at := formatUS(s.Time(i))
		for _, se := range series {
			j := i - se.Start()
			if j < 0 || j >= se.Len() {
				continue // resource registered after this instant
			}
			p := se.At(j)
			// csv.Writer copies the fields out, so one record serves
			// every row.
			rec[0], rec[1], rec[2], rec[3], rec[4] = run, sample, at, se.Name, string(se.Kind)
			rec[5] = strconv.Itoa(p.Occupancy)
			rec[6] = strconv.FormatUint(p.Ops, 10)
			rec[7] = strconv.FormatUint(p.Bytes, 10)
			rec[8] = formatUS(p.Busy)
			rec[9] = formatUS(p.Wait)
			rec[10] = strconv.FormatUint(p.Stalls, 10)
			if err := c.cw.Write(rec); err != nil {
				return err
			}
		}
	}
	c.cw.Flush()
	return c.cw.Error()
}

// formatUS renders t in microseconds with three decimals, as %.3f does.
// busy_us and wait_us are cumulative, so they read zero for a resource
// that has never been busy or never waited (70% of those fields in the
// observed flash-crowd cluster run). The constant skips FormatFloat and
// its two allocations for each of them; DESIGN.md §4e has the timing.
func formatUS(t sim.Time) string {
	if t == 0 {
		return "0.000"
	}
	return strconv.FormatFloat(t.Microseconds(), 'f', 3, 64)
}
