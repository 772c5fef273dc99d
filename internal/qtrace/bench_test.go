package qtrace

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// BenchmarkLogLatencies measures the end-of-run quantile read: one op
// gathers the latencies of 100,000 completed latency-only queries into a
// histogram and takes p50, p99 and p999 from it, which sorts them once.
// ns/query is the op's cost spread over its queries.
func BenchmarkLogLatencies(b *testing.B) {
	const queries = 100_000
	rng := rand.New(rand.NewSource(1))
	l := NewLog(Options{DropTimelines: true})
	for i := range queries {
		at := sim.Time(i) * sim.Millisecond
		l.Submitted(i, i, at)
		l.Completed(i, at+sim.Time(rng.Int63n(int64(sim.Second))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := l.Latencies()
		if h.Quantile(0.5) > h.Quantile(0.99) || h.Quantile(0.99) > h.Quantile(0.999) {
			b.Fatal("quantiles out of order")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries*b.N), "ns/query")
}
