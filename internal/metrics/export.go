package metrics

import (
	"bytes"
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/sim"
)

// csvHeader is the stable schema of the time-series CSV dump. reachsim's
// TestCLI validates its dumps against it.
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

// csvFlushAt is how many buffered bytes trigger a write to the
// underlying writer.
const csvFlushAt = 64 << 10

// CSVWriter streams one or more runs' sampler series as CSV: one row per
// (sample instant, resource), resources in sorted registry order within
// each sample so the output is diffable. A series contributes rows from
// its Start on, so a resource has no rows before its first non-zero
// sample and none at all if it never moves.
//
// The bytes are what encoding/csv writes for the same fields, but only
// the text fields go through it, once per run: the run label and each
// series' name and kind. A series' row tail, "resource,kind,occupancy,
// …,stalls\n", is formatted once per stored run with the strconv Append
// functions and copied for every sample the run holds; every row is
// appended to one reused buffer.
type CSVWriter struct {
	w           io.Writer
	buf         []byte // rows not yet written; its capacity is reused
	wroteHeader bool
}

// NewCSVWriter wraps w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: w}
}

// maxCountersLen bounds the bytes appendCounters writes: six fields of at
// most 20 bytes (an int64 or uint64 in decimal, or a microsecond value
// from appendUS) with a separator each.
const maxCountersLen = 6 * (20 + 1)

// heldRow is one series' place in WriteRun: its run iterator, the
// series-relative sample at which the current run ends, and the row tail
// formatted for that run after the series' "resource,kind," text.
type heldRow struct {
	runs   RunIter
	to     int
	prefix int // length of tail's "resource,kind," text
	tail   []byte
}

// WriteRun appends every sample of one run, labelled run in the first
// column. The header is written once, before the first row.
func (c *CSVWriter) WriteRun(run string, s Source) error {
	series := s.Series() // sorted by name
	label, rows := csvRecord(run), make([]heldRow, len(series))
	for k, se := range series {
		text := append(csvRecord(se.Name, string(se.Kind)), ',')
		// Sized for the longest possible row, so a tail never regrows.
		tail := append(make([]byte, 0, len(text)+maxCountersLen), text...)
		rows[k] = heldRow{runs: se.Runs(), prefix: len(text), tail: tail}
	}
	if c.buf == nil {
		// Twice the flush mark, so a row shorter than csvFlushAt never
		// regrows the buffer.
		c.buf = make([]byte, 0, 2*csvFlushAt)
	}
	b := c.buf[:0]
	if !c.wroteHeader {
		b = append(append(b, csvRecord(csvHeader...)...), '\n')
		c.wroteHeader = true
	}
	var head []byte // "run,sample,time_us," of the current sample
	for i := 0; i < s.Samples(); i++ {
		head = append(append(head[:0], label...), ',')
		head = append(strconv.AppendInt(head, int64(i), 10), ',')
		head = append(appendUS(head, s.Time(i)), ',')
		for k, se := range series {
			j := i - se.Start()
			if j < 0 || j >= se.Len() {
				continue // the series starts after this instant
			}
			h := &rows[k]
			if j >= h.to { // the series enters its next run
				h.runs.Next()
				r := h.runs.Run()
				h.to = r.To
				h.tail = appendCounters(h.tail[:h.prefix], r.Point)
			}
			b = append(append(b, head...), h.tail...)
			if len(b) >= csvFlushAt {
				if _, err := c.w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
	}
	c.buf = b
	if len(b) == 0 {
		return nil
	}
	_, err := c.w.Write(b)
	return err
}

// appendCounters appends p's six CSV fields, each followed by its
// separator, the last by the row's newline.
func appendCounters(b []byte, p Point) []byte {
	b = append(strconv.AppendInt(b, int64(p.Occupancy), 10), ',')
	b = append(strconv.AppendUint(b, p.Ops, 10), ',')
	b = append(strconv.AppendUint(b, p.Bytes, 10), ',')
	b = append(appendUS(b, p.Busy), ',')
	b = append(appendUS(b, p.Wait), ',')
	return append(strconv.AppendUint(b, p.Stalls, 10), '\n')
}

// csvRecord renders fields as encoding/csv writes them in one record,
// without the record's newline.
func csvRecord(fields ...string) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	w.Write(fields) // writes to a bytes.Buffer cannot fail
	w.Flush()
	return bytes.TrimSuffix(b.Bytes(), []byte{'\n'})
}

// maxExactPS bounds the picoseconds float64 holds exactly. Up to it the
// quotient t.Microseconds() is within 0.96 ps of t/10^6 µs.
const maxExactPS = 1 << 53

// appendUS appends t in microseconds with three decimals, exactly as
// strconv.FormatFloat(t.Microseconds(), 'f', 3, 64) renders it, from
// integer picoseconds: the nanoseconds rounded half up, with the sign of
// t even where they round to zero. The float quotient is within 1 ps of
// the exact one, so both round to the same nanosecond unless the
// sub-nanosecond residue lies within 1 ps of the 500 ps tie; those
// residues, and magnitudes past maxExactPS, take FormatFloat itself.
func appendUS(b []byte, t sim.Time) []byte {
	if t > maxExactPS || t < -maxExactPS {
		return strconv.AppendFloat(b, t.Microseconds(), 'f', 3, 64)
	}
	u := int64(t)
	if u < 0 {
		u = -u
	}
	ns, r := u/1000, u%1000
	if r >= 499 && r <= 501 {
		return strconv.AppendFloat(b, t.Microseconds(), 'f', 3, 64)
	}
	if r > 500 {
		ns++
	}
	if t < 0 {
		b = append(b, '-')
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	f := ns % 1000
	return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}
