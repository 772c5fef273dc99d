package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lanesCase is one SquaredL2Lanes input decoded from fuzz bytes.
type lanesCase struct {
	q    []float32
	m    *Matrix
	rows []int
}

// decodeLanesCase reads a width 0–70, a row count 0–31 and a matrix
// height 1–8 from the first three bytes, then the row indices (repeats
// allowed), then raw little-endian float32 bit patterns for q and the
// matrix, row by row. Values past the end of the input are zero.
func decodeLanesCase(b []byte) lanesCase {
	var head [3]byte
	copy(head[:], b)
	b = b[min(len(b), len(head)):]
	width, n, height := int(head[0])%71, int(head[1])%32, 1+int(head[2])%8

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
	// NewMatrix rejects width 0, which SquaredL2Lanes must still accept.
	m := &Matrix{Rows: height, Cols: width, Data: make([]float32, height*width)}
	for i := range m.Data {
		m.Data[i] = next()
	}
	return lanesCase{q: q, m: m, rows: rows}
}

// encodeLanesCase is the inverse of decodeLanesCase, for seeds: vals
// holds q followed by the matrix rows.
func encodeLanesCase(width, height int, rows []int, vals []float32) []byte {
	b := []byte{byte(width), byte(len(rows)), byte(height - 1)}
	for _, r := range rows {
		b = append(b, byte(r))
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// scanNearest is the scan NearestLanes must match: the rows in order,
// each kept only when its SquaredL2 is strictly less than the least so far.
func scanNearest(q []float32, m *Matrix, rows []int) (j int, d1, d2 float32) {
	d1, d2 = float32(math.Inf(1)), float32(math.Inf(1))
	for r, row := range rows {
		if d := SquaredL2(q, m.Row(row)); d < d1 {
			j, d1, d2 = r, d, d1
		} else if d < d2 {
			d2 = d
		}
	}
	return j, d1, d2
}

// nearestResult is what NearestLanes returns, for comparing.
type nearestResult struct {
	j      int
	d1, d2 float32
}

func (r nearestResult) String() string {
	return fmt.Sprintf("row %d, d1 %v (%#08x), d2 %v (%#08x)",
		r.j, r.d1, math.Float32bits(r.d1), r.d2, math.Float32bits(r.d2))
}

// FuzzSquaredL2Rows checks that every row SquaredL2Lanes scores is bit
// for bit the SquaredL2 of that row, over raw float32 bit patterns:
// subnormals, sums that overflow to +Inf, ±Inf and NaN all occur. It
// also checks that NearestLanes returns, bit for bit, what scanNearest
// returns, wherever l holds a row of at least one element. The portable
// lane loop and fold must meet the same contracts on the same input, so
// on amd64, where both kernels run the assembly, both implementations are
// checked. The rows are loaded into a Lanes that held the whole matrix
// before, so stale lanes of a reused buffer would show.
func FuzzSquaredL2Rows(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{0, 1, 3, 4, 5, 64} {
		// Row counts 0–31 give every padding count, and passes of one to
		// four blocks, alone and after full four-block passes.
		for n := 0; n < 32; n++ {
			const height = 8
			rows := make([]int, n)
			for j := range rows {
				rows[j] = rng.Intn(height)
			}
			vals := make([]float32, width*(1+height))
			for i := range vals {
				vals[i] = float32(rng.NormFloat64())
			}
			f.Add(encodeLanesCase(width, height, rows, vals))
		}
	}
	// A sum that overflows to +Inf: each term is (2e19)² = 4e38.
	big := []float32{1e19, 1e19, 1e19, 1e19, -1e19, -1e19, -1e19, -1e19}
	f.Add(encodeLanesCase(4, 1, []int{0, 0, 0, 0, 0}, big))
	// An all-subnormal query and row, whose squares underflow.
	sub := make([]float32, 3*5)
	for i := range sub {
		sub[i] = math.Float32frombits(uint32(1 + 37*i))
	}
	f.Add(encodeLanesCase(5, 2, []int{1, 0, 1, 1, 0}, sub))
	// Exact ties across lanes and blocks: rows 0 and 2 are both 0.0625
	// from q, and row 1 is farther.
	tie := []float32{0.5, -1, 2, 0.5, -1, 2.25, 3, 3, 3, 0.5, -1.25, 2}
	f.Add(encodeLanesCase(3, 3, []int{1, 1, 1, 1, 1, 2, 1, 1, 0, 1, 2}, tie))
	f.Add(encodeLanesCase(3, 3, []int{1, 1, 1, 2, 0, 1, 1}, tie))
	f.Add(encodeLanesCase(3, 3, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, tie))
	// +Inf sums beside finite ones: row 0 is +Inf from q, row 1 is 0.
	mixed := []float32{1e19, 1e19, 1e19, 1e19, -1e19, -1e19, -1e19, -1e19, 1e19, 1e19, 1e19, 1e19}
	f.Add(encodeLanesCase(4, 2, []int{0, 0, 0, 0, 0, 1}, mixed))
	f.Add(encodeLanesCase(4, 2, []int{0, 1, 0, 0, 0, 0, 1, 0, 1}, mixed))

	f.Fuzz(func(t *testing.T, b []byte) {
		c := decodeLanesCase(b)
		all := make([]int, c.m.Rows)
		for i := range all {
			all[i] = c.m.Rows - 1 - i
		}
		var l Lanes
		l.Load(c.m, all)
		l.Load(c.m, c.rows)
		n := l.Padded()
		if n < len(c.rows) || n >= len(c.rows)+4 || n%4 != 0 {
			t.Fatalf("Padded() = %d after loading %d rows", n, len(c.rows))
		}
		const sentinel = float32(-1.5)
		out := make([]float32, n+1)
		out[n] = sentinel
		SquaredL2Lanes(c.q, &l, out)
		portable := make([]float32, n)
		squaredL2LanesGo(c.q, l.data, portable)
		for j, r := range c.rows {
			want := SquaredL2(c.q, c.m.Row(r))
			for impl, got := range map[string]float32{"SquaredL2Lanes": out[j], "portable loop": portable[j]} {
				if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
					t.Errorf("%s, lane %d (row %d, width %d): got %v (%#08x), SquaredL2 gives %v (%#08x)",
						impl, j, r, len(c.q), got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
		if out[n] != sentinel {
			t.Errorf("wrote past the last block: out[%d] = %v", n, out[n])
		}

		if len(c.rows) == 0 || len(c.q) == 0 {
			return
		}
		var want nearestResult
		want.j, want.d1, want.d2 = scanNearest(c.q, c.m, c.rows)
		var fused, twin nearestResult
		fused.j, fused.d1, fused.d2 = NearestLanes(c.q, &l)
		twin.j, twin.d1, twin.d2 = nearestLanesGo(c.q, l.data, n/4)
		for impl, got := range map[string]nearestResult{"NearestLanes": fused, "portable fold": twin} {
			if got.j != want.j || math.Float32bits(got.d1) != math.Float32bits(want.d1) ||
				math.Float32bits(got.d2) != math.Float32bits(want.d2) {
				t.Errorf("%s over %d rows of width %d: %v, the scan gives %v", impl, len(c.rows), len(c.q), got, want)
			}
		}
	})
}

func TestSquaredL2RowsPanicsOnWidthMismatch(t *testing.T) {
	m := NewMatrix(4, 3)
	var l Lanes
	l.Load(m, []int{0, 1, 2, 3, 1})
	q := make([]float32, 2)
	for name, call := range map[string]func(){
		"SquaredL2":            func() { SquaredL2(q, m.Row(0)) },
		"SquaredL2Lanes":       func() { SquaredL2Lanes(q, &l, make([]float32, 8)) },
		"SquaredL2Lanes short": func() { SquaredL2Lanes(make([]float32, 3), &l, make([]float32, 5, 8)) },
		"NearestLanes":         func() { NearestLanes(q, &l) },
		"NearestLanes no rows": func() { NearestLanes(make([]float32, 3), &Lanes{dim: 3}) },
		"NearestLanes width 0": func() { NearestLanes(nil, &Lanes{n: 2}) },
		"RelaxBounds short":    func() { RelaxBounds(make([]float32, 5), make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestSquaredL2RowsAllocatesNothing(t *testing.T) {
	m := NewMatrix(16, 64)
	var l Lanes
	l.Load(m, []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	q := make([]float32, 64)
	out := make([]float32, l.Padded())
	if allocs := testing.AllocsPerRun(100, func() { SquaredL2Lanes(q, &l, out) }); allocs != 0 {
		t.Errorf("SquaredL2Lanes allocated %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkInt, sinkF32, _ = NearestLanes(q, &l) }); allocs != 0 {
		t.Errorf("NearestLanes allocated %v times per call, want 0", allocs)
	}
}

var (
	sinkF32 float32
	sinkInt int
)

// benchRows returns a query, a k = 256 centroid matrix at width d and one
// group of n rows in it, the shape of a Yinyang group scan.
func benchRows(d, n int) ([]float32, *Matrix, []int) {
	rng := rand.New(rand.NewSource(int64(d)))
	m := NewMatrix(256, d)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	q := make([]float32, d)
	for i := range q {
		q[i] = rng.Float32()
	}
	return q, m, rng.Perm(256)[:n]
}

// BenchmarkSquaredL2Lanes scores one lane-blocked 10-row group per op
// at the widths reachsim -exp all clusters at.
func BenchmarkSquaredL2Lanes(b *testing.B) {
	for _, d := range []int{4, 8, 32, 64} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			q, m, rows := benchRows(d, 10)
			var l Lanes
			l.Load(m, rows)
			out := make([]float32, l.Padded())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SquaredL2Lanes(q, &l, out)
			}
			sinkF32 = out[0]
		})
	}
}

// BenchmarkNearestLanes finds the nearest row of one group and its two
// least distances, the one call a Yinyang group scan makes: 10-row groups
// as above, and 4-, 8- and 12-row ones, whose single passes score one,
// two and three blocks.
func BenchmarkNearestLanes(b *testing.B) {
	for _, rows := range []int{4, 8, 10, 12} {
		for _, d := range []int{4, 8, 32, 64} {
			b.Run(fmt.Sprintf("rows=%d/D=%d", rows, d), func(b *testing.B) {
				q, m, group := benchRows(d, rows)
				var l Lanes
				l.Load(m, group)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkInt, sinkF32, _ = NearestLanes(q, &l)
				}
			})
		}
	}
}

// BenchmarkSquaredL2Loop scores the same groups one SquaredL2 call per
// row, the baseline SquaredL2Lanes replaces.
func BenchmarkSquaredL2Loop(b *testing.B) {
	for _, d := range []int{4, 8, 32, 64} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			q, m, rows := benchRows(d, 10)
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
