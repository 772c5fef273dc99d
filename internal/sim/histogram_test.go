package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram not zeroed")
	}
	for i := 1; i <= 100; i++ {
		h.Add(Time(i) * Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != Millisecond || h.Max() != 100*Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Mean(); got != Time(50.5*float64(Millisecond)) {
		t.Errorf("mean = %v, want 50.5ms", got)
	}
	if got := h.Quantile(0.5); got != 50*Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	if got := h.Quantile(0.99); got != 99*Millisecond {
		t.Errorf("p99 = %v, want 99ms", got)
	}
	if got := h.Quantile(1.0); got != 100*Millisecond {
		t.Errorf("p100 = %v, want max", got)
	}
	if got := h.Quantile(0); got != Millisecond {
		t.Errorf("p0 = %v, want min", got)
	}
	if h.String() == "" || h.String() == "histogram{empty}" {
		t.Error("summary wrong")
	}
}

func TestHistogramPanics(t *testing.T) {
	h := NewHistogram()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty quantile did not panic")
			}
		}()
		h.Quantile(0.5)
	}()
	h.Add(Second)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range quantile did not panic")
			}
		}()
		h.Quantile(1.5)
	}()
}

// Property: quantiles are monotone in q and bounded by min/max, for any
// sample set and insertion order.
func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8)%200 + 1
		h := NewHistogram()
		for i := 0; i < n; i++ {
			h.Add(Time(rng.Int63n(1_000_000)))
		}
		prev := h.Quantile(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return h.Quantile(0) >= h.Min() && h.Quantile(1) <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHistogramSingleSample: every quantile of a one-sample histogram is
// that sample.
func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Add(7 * Microsecond)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7*Microsecond {
			t.Errorf("q=%v: got %v, want 7µs", q, got)
		}
	}
	if h.Min() != 7*Microsecond || h.Max() != 7*Microsecond || h.Mean() != 7*Microsecond {
		t.Errorf("min/mean/max = %v/%v/%v, want 7µs each", h.Min(), h.Mean(), h.Max())
	}
}
