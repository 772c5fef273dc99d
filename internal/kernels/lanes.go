package kernels

import (
	"fmt"
	"math"
)

// Lanes holds chosen rows of a Matrix lane-blocked for SquaredL2Lanes and
// NearestLanes: the rows go in blocks of four, and each block stores them
// dim-major, element i of its four rows side by side, so one packed
// instruction reaches all four. Row j is lane j%4 of block j/4; the last
// block is padded with +Inf rows. The zero value holds no rows.
type Lanes struct {
	n, dim int
	data   []float32 // Padded()/4 blocks × dim × 4 lanes
}

// Load copies the rows of m listed in rows into l, replacing what it
// held and reusing its storage when the shape allows.
func (l *Lanes) Load(m *Matrix, rows []int) {
	l.n, l.dim = len(rows), m.Cols
	size := l.Padded() * l.dim
	if cap(l.data) < size {
		l.data = make([]float32, size)
	}
	l.data = l.data[:size]
	for j := 0; j < l.Padded(); j++ {
		blk := l.data[j/4*4*l.dim:]
		for i := 0; i < l.dim; i++ {
			v := float32(math.Inf(1)) // a padding lane holds +Inf
			if j < len(rows) {
				v = m.At(rows[j], i)
			}
			blk[4*i+j%4] = v
		}
	}
}

// Padded reports how many rows l holds, rounded up to whole blocks: the
// length of SquaredL2Lanes' output.
func (l *Lanes) Padded() int { return (l.n + 3) &^ 3 }

// SquaredL2Lanes scores q against every row l holds, storing
// SquaredL2(q, row j) in out[j]; out must hold l.Padded() values, and
// the padding lanes' values mean nothing. Each lane is one SquaredL2
// chain, so every result is bit for bit the SquaredL2 value (DESIGN.md
// §6). It allocates nothing.
func SquaredL2Lanes(q []float32, l *Lanes, out []float32) {
	if len(q) != l.dim {
		panic(fmt.Sprintf("kernels: SquaredL2Lanes dim mismatch %d vs %d", len(q), l.dim))
	}
	if len(out) < l.Padded() {
		panic(fmt.Sprintf("kernels: SquaredL2Lanes output holds %d values, need %d", len(out), l.Padded()))
	}
	squaredL2Lanes(q, l.data, out[:l.Padded()])
}

// NearestLanes scores q against every row l holds and returns the row j
// nearest it, its distance d1 and the second least distance d2, counting
// ties. It returns what a scan of the rows in order with SquaredL2 returns
// when it starts from j = 0 and d1 = d2 = +Inf and keeps a row only when
// its distance is strictly less: so j is the lowest row attaining d1, d2 is
// +Inf for a single row, and a NaN distance is never kept. Every distance
// it returns is bit for bit a SquaredL2 value (DESIGN.md §6). A padding
// row's distance is +Inf or NaN for any q, which the scan never keeps, so
// l must hold at least one row of at least one element. It allocates
// nothing.
func NearestLanes(q []float32, l *Lanes) (j int, d1, d2 float32) {
	if len(q) != l.dim {
		panic(fmt.Sprintf("kernels: NearestLanes dim mismatch %d vs %d", len(q), l.dim))
	}
	if l.n == 0 || l.dim == 0 {
		panic(fmt.Sprintf("kernels: NearestLanes over %d rows of %d elements", l.n, l.dim))
	}
	return nearestLanes(q, l.data, l.Padded()/4)
}

// laneMins is NearestLanes' scan split by lane: lane L scans rows L, L+4,
// L+8, … and holds their least distance d1[L], the row row[L] attaining it
// first and their second least distance d2[L].
type laneMins struct {
	d1, d2 [4]float32
	row    [4]int
}

// fold scans block b, whose four sums are s, one step further.
func (m *laneMins) fold(s []float32, b int) {
	for L, v := range s {
		if v < m.d1[L] {
			m.d1[L], m.d2[L], m.row[L] = v, m.d1[L], 4*b+L
		} else if v < m.d2[L] {
			m.d2[L] = v
		}
	}
}

// nearest merges the four lanes into the whole scan's result. No lane's
// d1 is NaN, and the two least distances overall are among the lanes' d1
// and d2.
func (m *laneMins) nearest() (j int, d1, d2 float32) {
	d1, d2 = float32(math.Inf(1)), float32(math.Inf(1))
	for L := range 4 {
		v, row := m.d1[L], m.row[L]
		if v < d1 || v == d1 && row < j {
			j, d1, d2 = row, v, min(d1, m.d2[L])
		} else {
			d2 = min(d2, v)
		}
	}
	return j, d1, d2
}

// nearestLanesGo is the portable nearestLanes: each of the first blocks
// blocks of blk is scored by squaredL2LanesGo and folded into the lanes'
// scans, which start at d1 = d2 = +Inf on row 0 and are then merged.
func nearestLanesGo(q, blk []float32, blocks int) (j int, d1, d2 float32) {
	inf := float32(math.Inf(1))
	m := laneMins{d1: [4]float32{inf, inf, inf, inf}, d2: [4]float32{inf, inf, inf, inf}}
	w := 4 * len(q)
	var s [4]float32
	for b := 0; b < blocks; b++ {
		squaredL2LanesGo(q, blk[b*w:(b+1)*w], s[:])
		m.fold(s[:], b)
	}
	return m.nearest()
}

// squaredL2LanesGo is the portable lane loop: block by block, four
// accumulators each summing its lane with SquaredL2's expression in
// ascending i. blk holds len(out)/4 blocks of len(q) × 4 values.
func squaredL2LanesGo(q, blk, out []float32) {
	w := 4 * len(q)
	for b := 0; b < len(out)/4; b++ {
		r := blk[b*w : (b+1)*w]
		var s0, s1, s2, s3 float32
		for i, x := range q {
			e := r[4*i : 4*i+4]
			d0 := x - e[0]
			s0 += d0 * d0
			d1 := x - e[1]
			s1 += d1 * d1
			d2 := x - e[2]
			s2 += d2 * d2
			d3 := x - e[3]
			s3 += d3 * d3
		}
		out[4*b], out[4*b+1], out[4*b+2], out[4*b+3] = s0, s1, s2, s3
	}
}
