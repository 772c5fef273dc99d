package kernels

// squaredL2Lanes is squaredL2LanesGo in baseline SSE (lanes_amd64.s):
// per element, one broadcast of q[i], then SUBPS, MULPS and ADDPS on each
// block, four blocks per pass and a last pass over the one to three left.
// The packed ops round each lane as the scalar ops of SquaredL2 do, and
// there is no FMA.
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

// relaxBounds is relaxBoundsGo in baseline SSE2 (lanes_amd64.s), four
// bounds per pass: CVTPS2PD, SUBPD and CVTPD2PS round each lane as the
// scalar conversions and subtract do, MAXPD against +0 is the d > 0 test,
// and an int32 decrement masked where the float is +0 is the one-ulp step.
//
//go:noescape
func relaxBounds(lb []float32, drift []float64) (minLB float32)
