//go:build !amd64

package kernels

func squaredL2Lanes(q, blk, out []float32) { squaredL2LanesGo(q, blk, out) }

func nearestLanes(q, blk []float32, blocks int) (j int, d1, d2 float32) {
	return nearestLanesGo(q, blk, blocks)
}

func relaxBounds(lb []float32, drift []float64) float32 { return relaxBoundsGo(lb, drift) }
