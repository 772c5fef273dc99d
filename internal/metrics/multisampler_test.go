package metrics

import (
	"testing"

	"repro/internal/sim"
)

// pingPong bounces a payload between two domains over cross links, so a
// MultiEngine run has both registry traffic (link bytes) and many
// barrier rounds for the sampler to observe.
type pingPong struct {
	links [2]*sim.CrossLink
	doms  [2]*sim.Engine
	hops  uint64
}

func (p *pingPong) Fire(eng *sim.Engine, arg uint64) {
	if arg >= p.hops {
		return
	}
	next := 1 - eng.ID()
	p.links[eng.ID()].Send(p.doms[next], 4096, p, arg+1)
}

// buildPingPong wires a fresh 2-domain MultiEngine carrying hops
// cross-domain transfers, ready to Run.
func buildPingPong(hops uint64) *sim.MultiEngine {
	m := sim.NewMultiEngine(2)
	p := &pingPong{hops: hops}
	p.doms = [2]*sim.Engine{m.Domain(0), m.Domain(1)}
	p.links[0] = sim.NewCrossLink(m.Domain(0), "x.01", 1e9, 2*sim.Microsecond)
	p.links[1] = sim.NewCrossLink(m.Domain(1), "x.10", 1e9, 2*sim.Microsecond)
	m.Domain(0).AtCall(0, p, 0)
	return m
}

func TestMultiSamplerRecordsDomainsAndResources(t *testing.T) {
	m := buildPingPong(200)
	rec := AttachMulti(m, Options{Interval: 10 * sim.Microsecond})
	m.Run()

	s := rec.Sampler
	if s.Samples() < 10 {
		t.Fatalf("expected many samples, got %d", s.Samples())
	}
	// The closing sample lands on the drained frontier.
	if got := s.Time(s.Samples() - 1); got != m.Now() {
		t.Fatalf("closing sample at %v, frontier at %v", got, m.Now())
	}
	for _, name := range []string{"sim.domain0", "sim.domain1"} {
		se, ok := s.Lookup(name)
		if !ok {
			t.Fatalf("%s series missing", name)
		}
		if se.Kind != sim.KindDomain {
			t.Fatalf("%s kind = %q", name, se.Kind)
		}
		if se.Len() != s.Samples() {
			t.Fatalf("%s len %d != samples %d", name, se.Len(), s.Samples())
		}
		for i := 1; i < se.Len(); i++ {
			if se.At(i).Ops < se.At(i-1).Ops || se.At(i).Busy < se.At(i-1).Busy {
				t.Fatalf("%s cumulative counters regressed at sample %d", name, i)
			}
		}
		// Busy is the domain clock and Wait its frontier lag: at every
		// sample they reconstruct the shared time axis.
		for i := 0; i < se.Len(); i++ {
			if p := se.At(i); p.Busy+p.Wait != s.Time(i) {
				t.Fatalf("%s sample %d: clock %v + lag %v != frontier %v",
					name, i, p.Busy, p.Wait, s.Time(i))
			}
		}
		if se.At(se.Len()-1).Ops == 0 {
			t.Fatalf("%s executed nothing", name)
		}
	}
	// Registry resources ride the same axis, exactly as on one engine.
	se, ok := s.Lookup("x.01")
	if !ok {
		t.Fatal("cross-link series missing")
	}
	if se.At(se.Len()-1).Bytes == 0 {
		t.Fatal("cross-link series recorded no traffic")
	}
}

// TestMultiSamplerZeroAllocSteadyState: the barrier sampler's cost per
// sample must amortize to (near) zero — chunked columns allocate only at
// 4096-sample boundaries and the registry walk is cached. Measured as
// the allocation delta between an instrumented and a bare run of the
// identical model, divided by the samples taken.
func TestMultiSamplerZeroAllocSteadyState(t *testing.T) {
	const hops = 4000
	run := func(sample bool) (allocs float64, samples int) {
		var rec *MultiRecorder
		allocs = testing.AllocsPerRun(1, func() {
			m := buildPingPong(hops)
			if sample {
				// Interval 1: sample at every advancing barrier.
				rec = AttachMulti(m, Options{Interval: 1})
			}
			m.Run()
		})
		if rec != nil {
			samples = rec.Sampler.Samples()
		}
		return allocs, samples
	}
	bare, _ := run(false)
	inst, samples := run(true)
	if samples < hops/2 {
		t.Fatalf("expected ~%d samples, got %d", hops, samples)
	}
	perSample := (inst - bare) / float64(samples)
	t.Logf("sampler overhead: %.3f allocs/sample over %d samples", perSample, samples)
	// One-time series/map setup plus chunk boundaries stay well under
	// one allocation per sample; a per-sample slice or closure would
	// blow straight past this.
	if perSample > 0.5 {
		t.Fatalf("sampler allocates %.2f/sample in steady state", perSample)
	}
}

// TestMergeSpansStableOrder: per-node logs merge by start time with ties
// broken by producer order then emission order.
func TestMergeSpansStableOrder(t *testing.T) {
	a, b := NewSpanLog(), NewSpanLog()
	a.Add(Span{Name: "a0", Start: 10})
	a.Add(Span{Name: "a1", Start: 30})
	b.Add(Span{Name: "b0", Start: 10})
	b.Add(Span{Name: "b1", Start: 20})
	got := MergeSpans([]*SpanLog{a, b, nil})
	want := []string{"a0", "b0", "b1", "a1"}
	if len(got) != len(want) {
		t.Fatalf("merged %d spans, want %d", len(got), len(want))
	}
	for i, n := range want {
		if got[i].Name != n {
			t.Fatalf("merged[%d] = %s, want %s", i, got[i].Name, n)
		}
	}
}
