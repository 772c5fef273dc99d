package kernels

// squaredL2Lanes is squaredL2LanesGo in baseline SSE (lanes_amd64.s):
// per element, one broadcast of q[i], then SUBPS, MULPS and ADDPS on each
// block, four blocks per pass. The packed ops round each lane as the
// scalar ops of SquaredL2 do, and there is no FMA.
//
//go:noescape
func squaredL2Lanes(q, blk, out []float32)

// nearestLanes is nearestLanesGo in baseline SSE: squaredL2Lanes' passes,
// each block's sums folded into the lanes' state with CMPPS, MINPS, MAXPS
// and bitwise blends, then the lanes reduced with shuffles, MINPS, MAXPS
// and integer compares and blends. None of these rounds.
//
//go:noescape
func nearestLanes(q, blk []float32, blocks int) (j int, d1, d2 float32)
