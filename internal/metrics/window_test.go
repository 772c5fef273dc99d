package metrics

import (
	"testing"

	"repro/internal/sim"
)

// fakeSource builds a Source by hand: n samples 10 µs apart, one series
// covering every sample and one late series starting at sample index 3.
func fakeSource(n int) *windowSource {
	w := &windowSource{}
	full := &Series{Name: "full", Kind: sim.KindQueue}
	late := &Series{Name: "late", Kind: sim.KindPort, start: 3}
	for i := 0; i < n; i++ {
		w.times = append(w.times, sim.Time(i)*10*sim.Microsecond)
		full.append(Point{Occupancy: i, Ops: uint64(100 + i), Busy: sim.Time(i) * sim.Microsecond}, 1)
		if i >= 3 {
			late.append(Point{Occupancy: 1000 + i}, 1)
		}
	}
	w.series = []*Series{full, late}
	return w
}

// TestWindowOfTrimsAndReanchors: the windowed source holds exactly the
// in-range sample instants, series re-anchored so exporters see a
// self-contained run.
func TestWindowOfTrimsAndReanchors(t *testing.T) {
	src := fakeSource(10)
	// Window [20µs, 60µs] → samples 2..6.
	w := WindowOf(src, 20*sim.Microsecond, 60*sim.Microsecond)
	if w.Samples() != 5 {
		t.Fatalf("window has %d samples, want 5", w.Samples())
	}
	if w.Time(0) != 20*sim.Microsecond || w.Time(4) != 60*sim.Microsecond {
		t.Fatalf("window time axis [%v, %v], want [20µs, 60µs]", w.Time(0), w.Time(4))
	}
	ser := w.Series()
	if len(ser) != 2 {
		t.Fatalf("window has %d series, want 2", len(ser))
	}
	full, late := ser[0], ser[1]
	if full.Start() != 0 || full.Len() != 5 {
		t.Fatalf("full series start=%d len=%d, want 0/5", full.Start(), full.Len())
	}
	if got := full.At(0).Occupancy; got != 2 {
		t.Errorf("full[0].Occupancy = %d, want 2 (original sample 2)", got)
	}
	if got := full.At(4).Ops; got != 106 {
		t.Errorf("full[4].Ops = %d, want 106", got)
	}
	// The late series started at original sample 3 → window-relative 1.
	if late.Start() != 1 || late.Len() != 4 {
		t.Fatalf("late series start=%d len=%d, want 1/4", late.Start(), late.Len())
	}
	if got := late.At(0).Occupancy; got != 1003 {
		t.Errorf("late[0].Occupancy = %d, want 1003", got)
	}

	// A window beyond the recorded range is empty, not a panic.
	if e := WindowOf(src, sim.Second, 2*sim.Second); e.Samples() != 0 || len(e.Series()) != 0 {
		t.Errorf("out-of-range window: %d samples, %d series", e.Samples(), len(e.Series()))
	}
	// A series with no in-window points is dropped entirely.
	if w2 := WindowOf(src, 0, 10*sim.Microsecond); len(w2.Series()) != 1 {
		t.Errorf("pre-late window carries %d series, want 1", len(w2.Series()))
	}
}

// TestWindowSpans: spans overlapping the window survive, per-node slots
// and nil logs are preserved, and the source logs are untouched.
func TestWindowSpans(t *testing.T) {
	l := NewSpanLog()
	l.Add(Span{Cat: CatDispatch, Name: "early", Start: 0, End: 10})
	l.Add(Span{Cat: CatDispatch, Name: "straddle", Start: 15, End: 25})
	l.Add(Span{Cat: CatDispatch, Name: "inside", Start: 30, End: 35})
	l.Add(Span{Cat: CatDispatch, Name: "late", Start: 50, End: 60})
	out := WindowSpans([]*SpanLog{l, nil}, 20, 40)
	if len(out) != 2 || out[1] != nil {
		t.Fatalf("slots not preserved: %v", out)
	}
	got := out[0].Spans()
	if len(got) != 2 || got[0].Name != "straddle" || got[1].Name != "inside" {
		t.Fatalf("windowed spans = %+v, want straddle+inside", got)
	}
	if l.Len() != 4 {
		t.Fatal("source log mutated")
	}
	if WindowSpans(nil, 0, 1) != nil {
		t.Fatal("nil slice should stay nil")
	}
}
