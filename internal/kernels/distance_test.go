package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowsCase is one SquaredL2Rows input decoded from fuzz bytes.
type rowsCase struct {
	q    []float32
	m    *Matrix
	rows []int
}

// decodeRowsCase reads a width 0–70, a row-index count 0–9 and a matrix
// height 1–8 from the first three bytes, then the row indices (repeats
// allowed), then raw little-endian float32 bit patterns for q and the
// matrix, row by row. Values past the end of the input are zero.
func decodeRowsCase(b []byte) rowsCase {
	var head [3]byte
	copy(head[:], b)
	b = b[min(len(b), len(head)):]
	width, n, height := int(head[0])%71, int(head[1])%10, 1+int(head[2])%8

	rows := make([]int, n)
	for j := range rows {
		if j < len(b) {
			rows[j] = int(b[j]) % height
		}
	}
	b = b[min(len(b), n):]

	next := func() float32 {
		if len(b) < 4 {
			b = nil
			return 0
		}
		v := math.Float32frombits(binary.LittleEndian.Uint32(b))
		b = b[4:]
		return v
	}
	q := make([]float32, width)
	for i := range q {
		q[i] = next()
	}
	// NewMatrix rejects width 0, which the kernel must still accept.
	m := &Matrix{Rows: height, Cols: width, Data: make([]float32, height*width)}
	for i := range m.Data {
		m.Data[i] = next()
	}
	return rowsCase{q: q, m: m, rows: rows}
}

// encodeRowsCase is the inverse of decodeRowsCase, for seeds: vals holds
// q followed by the matrix rows.
func encodeRowsCase(width, height int, rows []int, vals []float32) []byte {
	b := []byte{byte(width), byte(len(rows)), byte(height - 1)}
	for _, r := range rows {
		b = append(b, byte(r))
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// FuzzSquaredL2Rows checks that every SquaredL2Rows output is bit for bit
// the SquaredL2 of its row, over raw float32 bit patterns: subnormals,
// sums that overflow to +Inf, ±Inf and NaN all occur.
func FuzzSquaredL2Rows(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{0, 1, 3, 4, 5, 64} {
		// Every index count 0–9 covers every tail length after 0–2
		// four-row passes.
		for n := 0; n <= 9; n++ {
			const height = 8
			rows := make([]int, n)
			for j := range rows {
				rows[j] = rng.Intn(height)
			}
			vals := make([]float32, width*(1+height))
			for i := range vals {
				vals[i] = float32(rng.NormFloat64())
			}
			f.Add(encodeRowsCase(width, height, rows, vals))
		}
	}
	// A sum that overflows to +Inf: each term is (2e19)² = 4e38.
	big := []float32{1e19, 1e19, 1e19, 1e19, -1e19, -1e19, -1e19, -1e19}
	f.Add(encodeRowsCase(4, 1, []int{0, 0, 0, 0, 0}, big))
	// An all-subnormal query and row, whose squares underflow.
	sub := make([]float32, 3*5)
	for i := range sub {
		sub[i] = math.Float32frombits(uint32(1 + 37*i))
	}
	f.Add(encodeRowsCase(5, 2, []int{1, 0, 1, 1, 0}, sub))

	f.Fuzz(func(t *testing.T, b []byte) {
		c := decodeRowsCase(b)
		const sentinel = float32(-1.5)
		out := make([]float32, len(c.rows)+1)
		out[len(c.rows)] = sentinel
		SquaredL2Rows(c.q, c.m, c.rows, out)
		for j, r := range c.rows {
			want := SquaredL2(c.q, c.m.Row(r))
			got := out[j]
			if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
				t.Errorf("row %d (index %d, width %d): got %v (%#08x), SquaredL2 gives %v (%#08x)",
					j, r, len(c.q), got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
		if out[len(c.rows)] != sentinel {
			t.Errorf("wrote past len(rows): out[%d] = %v", len(c.rows), out[len(c.rows)])
		}
	})
}

func TestSquaredL2RowsPanicsOnWidthMismatch(t *testing.T) {
	m := NewMatrix(4, 3)
	q := make([]float32, 2)
	for name, call := range map[string]func(){
		"SquaredL2":     func() { SquaredL2(q, m.Row(0)) },
		"SquaredL2Rows": func() { SquaredL2Rows(q, m, []int{0, 1, 2, 3}, make([]float32, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a 2-wide query on 3-wide rows did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestSquaredL2RowsAllocatesNothing(t *testing.T) {
	m := NewMatrix(16, 64)
	q := make([]float32, 64)
	rows := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	out := make([]float32, len(rows))
	if allocs := testing.AllocsPerRun(100, func() { SquaredL2Rows(q, m, rows, out) }); allocs != 0 {
		t.Errorf("SquaredL2Rows allocated %v times per call, want 0", allocs)
	}
}

var sinkF32 float32

// benchRows returns a query, a k = 256 centroid matrix at width d and one
// group of 10 rows in it, the shape of a Yinyang group scan.
func benchRows(d int) ([]float32, *Matrix, []int) {
	rng := rand.New(rand.NewSource(int64(d)))
	m := NewMatrix(256, d)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	q := make([]float32, d)
	for i := range q {
		q[i] = rng.Float32()
	}
	return q, m, rng.Perm(256)[:10]
}

// BenchmarkSquaredL2Rows scores one 10-row group per op at the widths
// reachsim -exp all clusters at.
func BenchmarkSquaredL2Rows(b *testing.B) {
	for _, d := range []int{4, 8, 32, 64} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			q, m, rows := benchRows(d)
			out := make([]float32, len(rows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SquaredL2Rows(q, m, rows, out)
			}
			sinkF32 = out[0]
		})
	}
}

// BenchmarkSquaredL2Loop scores the same groups one SquaredL2 call per
// row, the baseline SquaredL2Rows replaces.
func BenchmarkSquaredL2Loop(b *testing.B) {
	for _, d := range []int{4, 8, 32, 64} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			q, m, rows := benchRows(d)
			out := make([]float32, len(rows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, r := range rows {
					out[j] = SquaredL2(q, m.Row(r))
				}
			}
			sinkF32 = out[0]
		})
	}
}
