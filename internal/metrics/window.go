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
// re-anchored at index zero. The copy is materialized — the runs that
// overlap the range are re-stored, clipped to it, not aliased — which is
// acceptable at bundle-dump time: the window is small by construction
// and the live sampler keeps recording undisturbed. Every exporter that
// takes a Source (CSV, the Chrome trace counter lanes) works on the
// windowed view unchanged, and because the sample instants and counter
// values of the underlying sampler are deterministic at any worker
// count, so is the window.
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
		// The series' own samples inside the window: [a, b).
		a, b := max(lo-se.Start(), 0), min(hi+1-se.Start(), se.Len())
		if a >= b {
			continue // series started after the window (or ended before)
		}
		out := &Series{Name: se.Name, Kind: se.Kind, start: se.Start() + a - lo}
		for it := se.Runs(); it.Next(); {
			r := it.Run()
			if n := min(r.To, b) - max(r.From, a); n > 0 {
				out.append(r.Point, n)
			}
		}
		w.series = append(w.series, out)
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
