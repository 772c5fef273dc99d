package sim

import (
	"fmt"
	"slices"
)

// Histogram collects simulated durations and answers exact quantile
// queries. It keeps every sample, and it is the simulator's one quantile
// implementation: every printed latency percentile comes from one.
type Histogram struct {
	samples []Time
	sorted  bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// HistogramOf returns a histogram over samples, which it takes over.
func HistogramOf(samples []Time) *Histogram { return &Histogram{samples: samples} }

// Add records one sample.
func (h *Histogram) Add(t Time) {
	h.samples = append(h.samples, t)
	h.sorted = false
}

// Count reports the sample count.
func (h *Histogram) Count() int { return len(h.samples) }

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		slices.Sort(h.samples)
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

// Max reports the largest sample (zero on empty).
func (h *Histogram) Max() Time {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	return h.samples[len(h.samples)-1]
}
