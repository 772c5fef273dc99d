package metrics

import "repro/internal/sim"

// windowSource is a materialized Source restricted to a sample-time
// window — what WindowOf builds when the flight recorder cuts a
// diagnostic bundle out of a full-run sampler.
type windowSource struct {
	times  []sim.Time
	series []*Series
}

func (w *windowSource) Samples() int        { return len(w.times) }
func (w *windowSource) Time(i int) sim.Time { return w.times[i] }
func (w *windowSource) Series() []*Series   { return w.series }

// WindowOf returns a Source holding only the sample instants of s that
// fall within [from, to], with every series trimmed to that range and
// re-anchored at index zero. The copy is materialized — columns are
// re-appended, not aliased — which is acceptable at bundle-dump time: the
// window is small by construction and the live sampler keeps recording
// undisturbed. Every exporter that takes a Source (CSV, the Chrome trace
// counter lanes) works on the windowed view unchanged, and because
// the sample instants and counter values of the underlying sampler are
// deterministic at any worker count, so is the window.
func WindowOf(s Source, from, to sim.Time) Source {
	lo := s.Samples()
	hi := -1
	for i := 0; i < s.Samples(); i++ {
		t := s.Time(i)
		if t < from || t > to {
			continue
		}
		if i < lo {
			lo = i
		}
		hi = i
	}
	w := &windowSource{}
	if hi < 0 {
		return w
	}
	for i := lo; i <= hi; i++ {
		w.times = append(w.times, s.Time(i))
	}
	for _, se := range s.Series() {
		var out *Series
		for i := lo; i <= hi; i++ {
			j := i - se.Start()
			if j < 0 || j >= se.Len() {
				continue // series started after instant i (or ended before)
			}
			if out == nil {
				out = &Series{Name: se.Name, Kind: se.Kind, start: i - lo}
			}
			p := se.At(j)
			out.occupancy.append(int64(p.Occupancy))
			out.ops.append(int64(p.Ops))
			out.bytes.append(int64(p.Bytes))
			out.busy.append(int64(p.Busy))
			out.wait.append(int64(p.Wait))
			out.stalls.append(int64(p.Stalls))
		}
		if out != nil {
			w.series = append(w.series, out)
		}
	}
	return w
}

// WindowSpans filters per-node span logs to the spans overlapping
// [from, to], preserving slice positions (nil logs stay nil) so the
// windowed logs drop into the same per-node exporter slots as the
// originals. Fresh logs are built; the live logs are untouched.
func WindowSpans(logs []*SpanLog, from, to sim.Time) []*SpanLog {
	if logs == nil {
		return nil
	}
	out := make([]*SpanLog, len(logs))
	for i, l := range logs {
		if l == nil {
			continue
		}
		w := NewSpanLog()
		for _, sp := range l.Spans() {
			if sp.End >= from && sp.Start <= to {
				w.Add(sp)
			}
		}
		out[i] = w
	}
	return out
}
