package qtrace

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// exactQuantile is the reference the sketch is tested against: the
// ⌊q·n⌋-th smallest sample of a sorted copy, clamped to [1, n] (the rank
// rule of sim.Histogram: idx = int(q*n)-1 clamped to [0, n-1]).
func exactQuantile(samples []sim.Time, q float64) sim.Time {
	sorted := append([]sim.Time(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TestSketchQuantileErrorBound is the property test behind the documented
// guarantee: across random workloads spanning the trackable range, every
// queried quantile is within relative error Alpha of the exact
// floor-rank quantile.
func TestSketchQuantileErrorBound(t *testing.T) {
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for _, alpha := range []float64{0.01, 0.005} {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(5000)
			s := NewSketch(alpha)
			samples := make([]sim.Time, n)
			for i := range samples {
				// Log-uniform over [10 ns, 100 s]: exercises buckets across
				// seven orders of magnitude, like a saturating load sweep.
				exp := rng.Float64() * 7
				v := sim.Time(10e-9 * math.Pow(10, exp) * float64(sim.Second))
				samples[i] = v
				s.Add(v)
			}
			for _, q := range quantiles {
				got := s.Quantile(q)
				want := exactQuantile(samples, q)
				// The documented bound: α relative error plus the ±1 ps
				// quantization of the picosecond time grid.
				relErr := math.Abs(float64(got)-float64(want)) / float64(want)
				if relErr > alpha+1/float64(want) {
					t.Fatalf("alpha=%v trial=%d n=%d q=%v: got %v want %v (rel err %.4f > %.4f)",
						alpha, trial, n, q, got, want, relErr, alpha)
				}
			}
		}
	}
}

func TestSketchEmpty(t *testing.T) {
	s := NewSketch(0)
	if s.Count() != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty sketch not all-zero: count=%d p50=%v mean=%v", s.Count(), s.Quantile(0.5), s.Mean())
	}
}

func TestSketchSingleSample(t *testing.T) {
	s := NewSketch(0)
	v := 3 * sim.Millisecond
	s.Add(v)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if relErr := math.Abs(float64(got)-float64(v)) / float64(v); relErr > s.Alpha() {
			t.Fatalf("q=%v: got %v want %v within %v", q, got, v, s.Alpha())
		}
	}
	if s.Min() != v || s.Max() != v || s.Mean() != v || s.Sum() != v {
		t.Fatalf("exact stats wrong: min=%v max=%v mean=%v sum=%v", s.Min(), s.Max(), s.Mean(), s.Sum())
	}
}

func TestSketchAllEqual(t *testing.T) {
	s := NewSketch(0)
	v := 250 * sim.Microsecond
	for i := 0; i < 1000; i++ {
		s.Add(v)
	}
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		got := s.Quantile(q)
		if relErr := math.Abs(float64(got)-float64(v)) / float64(v); relErr > s.Alpha() {
			t.Fatalf("q=%v: got %v want %v within %v", q, got, v, s.Alpha())
		}
	}
}

// TestSketchOverflow: samples beyond the trackable maximum land in the
// overflow bucket; quantiles that reach it report the trackable maximum
// (a lower bound), and the exact Max is preserved.
func TestSketchOverflow(t *testing.T) {
	s := NewSketch(0)
	huge := 50000 * sim.Second
	for i := 0; i < 10; i++ {
		s.Add(sim.Millisecond)
		s.Add(huge)
	}
	if s.OverflowCount() != 10 {
		t.Fatalf("overflow count = %d, want 10", s.OverflowCount())
	}
	if got := s.Quantile(1); got != sketchMax {
		t.Fatalf("p100 = %v, want the trackable max %v", got, sketchMax)
	}
	if got := s.Quantile(0.25); got >= sketchMax {
		t.Fatalf("p25 = %v landed in overflow; should be near 1 ms", got)
	}
	if s.Max() != huge {
		t.Fatalf("exact max lost: %v", s.Max())
	}
}

// TestSketchZeroAndNegative: sub-nanosecond and negative samples collapse
// into the zero bucket without panicking.
func TestSketchZeroAndNegative(t *testing.T) {
	s := NewSketch(0)
	s.Add(0)
	s.Add(-5)
	s.Add(sim.Nanosecond / 2)
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("p50 of zero-bucket samples = %v, want 0", got)
	}
}

// TestSketchAddNoAllocs gates the hot path: Add must not allocate.
func TestSketchAddNoAllocs(t *testing.T) {
	s := NewSketch(0)
	v := sim.Millisecond
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(v)
		v += sim.Microsecond
	})
	if allocs > 0 {
		t.Fatalf("Sketch.Add allocates %.1f/op, want 0", allocs)
	}
}
