package sim

import (
	"fmt"
	"sort"
)

// Histogram collects simulated durations and answers quantile queries —
// the latency-distribution utility behind the load-sweep experiment's
// mean/p99 columns. It keeps every sample.
type Histogram struct {
	samples []Time
	sorted  bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample.
func (h *Histogram) Add(t Time) {
	h.samples = append(h.samples, t)
	h.sorted = false
}

// Count reports the sample count.
func (h *Histogram) Count() int { return len(h.samples) }

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Quantile reports the q-quantile (0 ≤ q ≤ 1) as the ⌊q·n⌋-th smallest
// sample, clamped to [1, n]: a floor rank, one below the nearest-rank
// method's ⌈q·n⌉-th sample when q·n is a non-integer above 1. It panics on
// an empty histogram or out-of-range q, both of which indicate harness
// bugs.
func (h *Histogram) Quantile(q float64) Time {
	if len(h.samples) == 0 {
		panic("sim: quantile of empty histogram")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("sim: quantile %v out of [0,1]", q))
	}
	h.ensureSorted()
	idx := int(q*float64(len(h.samples))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Mean reports the arithmetic mean.
func (h *Histogram) Mean() Time {
	if len(h.samples) == 0 {
		return 0
	}
	var sum Time
	for _, s := range h.samples {
		sum += s
	}
	return Time(int64(sum) / int64(len(h.samples)))
}

// Min and Max report the extremes (zero on empty).
func (h *Histogram) Min() Time {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	return h.samples[0]
}

// Max reports the largest sample (zero on empty).
func (h *Histogram) Max() Time {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	return h.samples[len(h.samples)-1]
}

// String summarises the distribution.
func (h *Histogram) String() string {
	if len(h.samples) == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d min=%v mean=%v p50=%v p99=%v max=%v}",
		h.Count(), h.Min(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
