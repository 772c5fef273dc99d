package qtrace

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// DefaultAlpha is the sketch's relative-error bound when NewSketch is given
// none, as every query log's and monitor's sketch is: 1% keeps p999 of a
// multi-second latency distribution within a few milliseconds of truth
// while the whole sketch stays under 12 KiB.
const DefaultAlpha = 0.01

// Sketch trackable range. Query latencies in this simulator span
// microseconds (an unloaded on-chip stage) to minutes (a saturated open
// loop); a nanosecond-to-an-hour-plus range covers both with margin.
const (
	sketchMin = sim.Nanosecond    // values at or below collapse into the zero bucket
	sketchMax = 4000 * sim.Second // values above land in the overflow bucket
)

// Sketch is a log-bucketed quantile histogram over simulated durations
// (the DDSketch construction): bucket i covers the value range
// (min·γ^(i-1), min·γ^i] with γ = (1+α)/(1−α), so every value in a bucket
// is within relative error α of the bucket's midpoint estimate
// 2·min·γ^i/(1+γ).
//
// Error bound: for samples in [1 ns, 4000 s], Quantile(q) is within
// relative error α of the ⌊q·n⌋-th smallest added sample (the rank rule
// of Quantile), plus the ±1 ps quantization of rounding the estimate to
// the simulator's time grid (see TestSketchQuantileErrorBound). Samples
// ≤ 1 ns report as exactly their shared bucket's floor (0); samples
// > 4000 s saturate the overflow bucket and quantiles that land there
// report the range maximum — a lower bound, with no relative guarantee.
// Count, Sum, Min and Max stay exact for every sample.
//
// Add performs no heap allocations (the bucket array is sized at
// construction), so a sketch can sit on the query-completion path of a
// long sweep without disturbing the allocation profile.
type Sketch struct {
	alpha       float64
	gamma       float64
	invLogGamma float64

	counts   []uint64 // counts[i] covers (sketchMin·γ^(i-1), sketchMin·γ^i]
	zero     uint64   // samples ≤ sketchMin
	overflow uint64   // samples > sketchMax

	n   uint64
	sum float64 // picoseconds; float64 to survive >100-day totals
	min sim.Time
	max sim.Time
}

// NewSketch returns an empty sketch with relative-error bound alpha
// (<= 0 means DefaultAlpha). alpha must stay below 1.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if alpha >= 1 {
		panic(fmt.Sprintf("qtrace: sketch alpha %v out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	span := math.Log(float64(sketchMax) / float64(sketchMin))
	buckets := int(math.Ceil(span/math.Log(gamma))) + 1
	return &Sketch{
		alpha:       alpha,
		gamma:       gamma,
		invLogGamma: 1 / math.Log(gamma),
		counts:      make([]uint64, buckets),
	}
}

// Alpha reports the configured relative-error bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Add records one duration. Negative durations are clamped to zero (they
// indicate a model bug upstream, but a latency sketch is the wrong place
// to crash a long sweep).
func (s *Sketch) Add(t sim.Time) {
	if t < 0 {
		t = 0
	}
	if s.n == 0 || t < s.min {
		s.min = t
	}
	if t > s.max {
		s.max = t
	}
	s.n++
	s.sum += float64(t)
	switch {
	case t <= sketchMin:
		s.zero++
	case t > sketchMax:
		s.overflow++
	default:
		i := int(math.Ceil(math.Log(float64(t)/float64(sketchMin)) * s.invLogGamma))
		if i < 0 {
			i = 0
		}
		if i >= len(s.counts) {
			i = len(s.counts) - 1
		}
		s.counts[i]++
	}
}

// Count reports how many samples were added.
func (s *Sketch) Count() uint64 { return s.n }

// OverflowCount reports how many samples exceeded the trackable maximum.
func (s *Sketch) OverflowCount() uint64 { return s.overflow }

// Sum reports the exact total of the added samples.
func (s *Sketch) Sum() sim.Time { return sim.Time(s.sum) }

// Mean reports the exact arithmetic mean (zero on empty).
func (s *Sketch) Mean() sim.Time {
	if s.n == 0 {
		return 0
	}
	return sim.Time(s.sum / float64(s.n))
}

// Min reports the exact smallest sample (zero on empty).
func (s *Sketch) Min() sim.Time { return s.min }

// Max reports the exact largest sample (zero on empty).
func (s *Sketch) Max() sim.Time { return s.max }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) under the rank rule of
// sim.Histogram.Quantile: the ⌊q·n⌋-th smallest sample, clamped to
// [1, n], which is one rank below the nearest-rank method's ⌈q·n⌉-th
// sample when q·n is a non-integer above 1. Empty sketches report zero;
// out-of-range q panics. The estimate is within relative error Alpha of
// the exact ranked sample for samples in the trackable range (see the type
// comment for the edges).
func (s *Sketch) Quantile(q float64) sim.Time {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("qtrace: quantile %v out of [0,1]", q))
	}
	if s.n == 0 {
		return 0
	}
	// Rank of the target sample, 1-based, matching sim.Histogram's
	// idx = int(q*n)-1 clamped to [0, n-1].
	rank := uint64(q * float64(s.n))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	cum := s.zero
	if cum >= rank {
		// The target sits among the sub-nanosecond samples: report their
		// bucket floor. Exact when every such sample is zero (the common
		// case: instantaneous completion).
		return 0
	}
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			// Midpoint of (min·γ^(i-1), min·γ^i]: 2·min·γ^i/(1+γ),
			// rounded to the picosecond grid.
			ub := float64(sketchMin) * math.Pow(s.gamma, float64(i))
			return sim.Time(2*ub/(1+s.gamma) + 0.5)
		}
	}
	// Target is in the overflow bucket: the trackable maximum is a lower
	// bound on the true value.
	return sketchMax
}
