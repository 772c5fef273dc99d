package core

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/metrics"
)

// TestStreamPassZeroAlloc: the GAM's stream pass is a put/get pair
// through its level pair's registered buffer — zero allocations, zero
// observer effect, and the capacity-1 buffer never parks a put.
func TestStreamPassZeroAlloc(t *testing.T) {
	s, err := NewSystem(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	g := s.GAM()
	if g.SpanLog() != nil {
		t.Fatal("span log attached by default")
	}
	buf := g.streamBuf(accel.OnChip, accel.NearMemory)
	j := NewJob(0)
	n := &TaskNode{job: j}
	sink := func(any) {}
	allocs := testing.AllocsPerRun(200, func() { g.streamPass(buf, n, sink) })
	if allocs > 0 {
		t.Fatalf("streamPass allocates %.1f/op, want 0", allocs)
	}
	if buf.PutWaits() != 0 || buf.MaxOccupancy() != 1 || buf.Len() != 0 {
		t.Fatalf("stream buffer parked %d puts, held up to %d items, holds %d; want 0, 1, 0",
			buf.PutWaits(), buf.MaxOccupancy(), buf.Len())
	}
}

// TestSpanHooksRecordCauses: an instrumented run records dispatch spans
// with real cause tags and poll gaps for non-coherent levels.
func TestSpanHooksRecordCauses(t *testing.T) {
	s, err := NewSystem(config.Default().WithInstances(0, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	log := metrics.NewSpanLog()
	s.GAM().SetSpanLog(log)

	kernel, err := s.Registry().Lookup("GEMM-ZCU9")
	if err != nil {
		t.Fatal(err)
	}
	j := NewJob(1)
	// Three tasks onto two instances: the third must wait for an idle
	// instance, so at least one dispatch span carries no-idle-instance.
	for i := 0; i < 3; i++ {
		j.AddTask(accel.Task{
			Name: fmt.Sprintf("t%d", i), Stage: "SL", Kernel: kernel,
			MACs: 1e6, Bytes: 1 << 24, Source: accel.SourceLocalDIMM,
		}, accel.NearMemory)
	}
	if err := s.GAM().Submit(j); err != nil {
		t.Fatal(err)
	}
	s.Run()

	var dispatches, pollGaps int
	causes := map[string]bool{}
	for _, sp := range log.Spans() {
		switch sp.Cat {
		case metrics.CatDispatch:
			dispatches++
			causes[sp.Cause] = true
			if sp.End < sp.Start {
				t.Errorf("span %v ends before it starts", sp)
			}
		case metrics.CatPollGap:
			pollGaps++
			if sp.V <= 0 {
				t.Errorf("poll-gap span without polls: %v", sp)
			}
		}
	}
	if dispatches != 3 {
		t.Errorf("dispatch spans = %d, want 3", dispatches)
	}
	if !causes[metrics.CauseNoIdleInstance] {
		t.Errorf("no no-idle-instance cause among %v", causes)
	}
	if pollGaps == 0 {
		t.Error("no poll-gap spans for a non-coherent level")
	}
}
