package kernels

import "fmt"

// Lanes holds chosen rows of a Matrix lane-blocked for SquaredL2Lanes:
// the rows go in blocks of four, and each block stores them dim-major,
// element i of its four rows side by side, so one packed instruction
// reaches all four. Row j is lane j%4 of block j/4; the last block is
// padded with zero rows. The zero value holds no rows.
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
			var v float32 // a padding lane holds zeros
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
