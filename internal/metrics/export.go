package metrics

import (
	"encoding/csv"
	"encoding/json"
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
// CSV/JSONL/trace-counter pipeline serves both.
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

// jsonSample is the JSONL shape of one (sample, resource) point.
type jsonSample struct {
	Run       string  `json:"run"`
	Type      string  `json:"type"` // "sample"
	Sample    int     `json:"sample"`
	TimeUS    float64 `json:"time_us"`
	Resource  string  `json:"resource"`
	Kind      string  `json:"kind"`
	Occupancy int     `json:"occupancy"`
	Ops       uint64  `json:"ops"`
	Bytes     uint64  `json:"bytes"`
	BusyUS    float64 `json:"busy_us"`
	WaitUS    float64 `json:"wait_us"`
	Stalls    uint64  `json:"stalls"`
}

// jsonSpan is the JSONL shape of one GAM span.
type jsonSpan struct {
	Run     string  `json:"run"`
	Type    string  `json:"type"` // "span"
	Cat     string  `json:"cat"`
	Name    string  `json:"name"`
	Lane    string  `json:"lane"`
	Cause   string  `json:"cause"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Job     int     `json:"job"`
	V       int64   `json:"v"`
}

// JSONLWriter streams runs as JSON Lines: every sampler point as a
// {"type":"sample"} object (sorted resource order within a sample) and,
// when the recorder carries a span log, every span as {"type":"span"}.
type JSONLWriter struct {
	enc *json.Encoder
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w)}
}

// WriteRun appends one run's samples and spans, labelled run.
func (j *JSONLWriter) WriteRun(run string, r *Recorder) error {
	if err := j.WriteSamples(run, r.Sampler); err != nil {
		return err
	}
	return j.WriteSpans(run, r.Spans.Spans())
}

// WriteMulti appends one cluster run's samples and merged per-node
// spans, labelled run.
func (j *JSONLWriter) WriteMulti(run string, r *MultiRecorder) error {
	if err := j.WriteSamples(run, r.Sampler); err != nil {
		return err
	}
	return j.WriteSpans(run, r.MergedSpans())
}

// WriteSamples appends every {"type":"sample"} line of one source.
func (j *JSONLWriter) WriteSamples(run string, s Source) error {
	series := s.Series()
	for i := 0; i < s.Samples(); i++ {
		t := s.Time(i)
		for _, se := range series {
			k := i - se.Start()
			if k < 0 || k >= se.Len() {
				continue
			}
			p := se.At(k)
			err := j.enc.Encode(jsonSample{
				Run: run, Type: "sample", Sample: i, TimeUS: t.Microseconds(),
				Resource: se.Name, Kind: string(se.Kind),
				Occupancy: p.Occupancy, Ops: p.Ops, Bytes: p.Bytes,
				BusyUS: p.Busy.Microseconds(), WaitUS: p.Wait.Microseconds(),
				Stalls: p.Stalls,
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteSpans appends every {"type":"span"} line for spans (already in
// the caller's deterministic order).
func (j *JSONLWriter) WriteSpans(run string, spans []Span) error {
	for _, sp := range spans {
		err := j.enc.Encode(jsonSpan{
			Run: run, Type: "span", Cat: sp.Cat, Name: sp.Name, Lane: sp.Lane,
			Cause: sp.Cause, StartUS: sp.Start.Microseconds(),
			EndUS: sp.End.Microseconds(), Job: sp.Job, V: sp.V,
		})
		if err != nil {
			return err
		}
	}
	return nil
}
