package kernels

import "math"

// Conv2DMACs reports the multiply-accumulate count of a same-padded
// stride-1 convolution over an H×W input.
func Conv2DMACs(h, w, inC, outC, k int) float64 {
	return float64(h) * float64(w) * float64(inC) * float64(outC) * float64(k) * float64(k)
}

// L2Normalize scales v to unit Euclidean norm in place (no-op for the zero
// vector) and returns it.
func L2Normalize(v []float32) []float32 {
	n := float64(SquaredNorm(v))
	if n == 0 {
		return v
	}
	inv := float32(1 / math.Sqrt(n))
	for i := range v {
		v[i] *= inv
	}
	return v
}
