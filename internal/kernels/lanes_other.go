//go:build !amd64

package kernels

func squaredL2Lanes(q, blk, out []float32) { squaredL2LanesGo(q, blk, out) }
