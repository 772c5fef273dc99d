package kernels

// squaredL2Lanes is squaredL2LanesGo in baseline SSE (lanes_amd64.s):
// per element, one broadcast of q[i], then SUBPS, MULPS and ADDPS on each
// block, four blocks per pass. The packed ops round each lane as the
// scalar ops of SquaredL2 do, and there is no FMA.
//
//go:noescape
func squaredL2Lanes(q, blk, out []float32)
