package flight

import (
	"testing"

	"repro/internal/qtrace"
	"repro/internal/sim"
)

// BenchmarkRecorderQueryDone is the enabled-path overhead gate: one
// completion through an armed recorder in steady state — the retained ID,
// window eviction, the observability point and all three detector
// evaluations. The healthy stream below never triggers, so every
// iteration pays the full always-on cost. Compare against the cluster's
// per-query budget (~145 allocs, ~70µs modelled work): the recorder must
// stay a small fraction of it.
func BenchmarkRecorderQueryDone(b *testing.B) {
	r := New(Config{Detect: true, Objective: sim.Second})
	r.SetLoadProvider(func(dst []int) []int {
		return append(dst, 3, 2, 4, 3)
	})
	l := qtrace.NewLog(qtrace.Options{Observer: r})
	interval := 10 * sim.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i) * interval
		l.Submitted(i, i%16, at)
		l.Completed(i, at+5*sim.Millisecond)
	}
	b.StopTimer()
	if r.Frozen() {
		b.Fatal("healthy stream must not trigger")
	}
}
