package kernels

import "math"

// RelaxBounds loosens Yinyang lower bounds by the centroid drift of the
// last update and returns the least of them, +Inf when lb is empty. Each
// lb[g] becomes the float32 just below lb[g] − drift[g], subtracted in
// float64 and rounded to nearest, or 0 where that difference is not
// positive (NaN included) or rounds to 0. So a bound stays below the
// exact difference where that is positive, and the result is bit for bit
// that of the scalar loop relaxBoundsGo for any input (DESIGN.md §6).
// drift must hold at least len(lb) values. It allocates nothing.
func RelaxBounds(lb []float32, drift []float64) float32 {
	if len(drift) < len(lb) {
		panic("kernels: RelaxBounds has fewer drifts than bounds")
	}
	return relaxBounds(lb, drift[:len(lb)])
}

// relaxBoundsGo is the portable relaxBounds: per bound a float64
// subtract, the d > 0 test, a float32 conversion and a one-ulp step down
// unless it gave 0.
func relaxBoundsGo(lb []float32, drift []float64) float32 {
	minLB := float32(math.Inf(1))
	for g, b := range lb {
		v := float32(0)
		if d := float64(b) - drift[g]; d > 0 {
			if f := float32(d); f != 0 {
				v = math.Float32frombits(math.Float32bits(f) - 1)
			}
		}
		lb[g] = v
		minLB = min(minLB, v)
	}
	return minLB
}
