package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestGeMMKnownResult(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	c := GeMM(a, b)
	want := [][]float32{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestGeMMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(5, 5)
	for i := range a.Data {
		a.Data[i] = rng.Float32()
	}
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	c := GeMM(a, id)
	for i := range a.Data {
		if c.Data[i] != a.Data[i] {
			t.Fatalf("A×I != A at %d", i)
		}
	}
}

func TestGeMMShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch accepted")
		}
	}()
	GeMM(NewMatrix(2, 3), NewMatrix(2, 3))
}

// Property: (A×B)ᵀ == Bᵀ×Aᵀ within float tolerance.
func TestGeMMTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		for i := range a.Data {
			a.Data[i] = rng.Float32() - 0.5
		}
		for i := range b.Data {
			b.Data[i] = rng.Float32() - 0.5
		}
		left := GeMM(a, b).Transpose()
		right := GeMM(b.Transpose(), a.Transpose())
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSquaredL2(t *testing.T) {
	p := []float32{1, 2, 3}
	q := []float32{4, 6, 3}
	if d := SquaredL2(p, q); d != 25 {
		t.Errorf("SquaredL2 = %v, want 25", d)
	}
	if d := SquaredL2(p, p); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

// Property: the Eq. 1 decomposition ‖q‖²+‖c‖²−2⟨q,c⟩ equals the direct
// Eq. 2 computation.
func TestEq1DecompositionMatchesEq2(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const B, D, M = 3, 8, 5
		queries := NewMatrix(B, D)
		for i := range queries.Data {
			queries.Data[i] = rng.Float32() - 0.5
		}
		centroids := NewMatrix(M, D)
		for i := range centroids.Data {
			centroids.Data[i] = rng.Float32() - 0.5
		}
		norms := make([]float32, M)
		for m := 0; m < M; m++ {
			norms[m] = SquaredNorm(centroids.Row(m))
		}
		dists := BatchDistances(queries, centroids.Transpose(), norms)
		for b := 0; b < B; b++ {
			for m := 0; m < M; m++ {
				direct := SquaredL2(queries.Row(b), centroids.Row(m))
				if !almostEq(dists.At(b, m), direct, 1e-4) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTopKSelectsSmallest(t *testing.T) {
	sel := NewTopK(3)
	dists := []float32{5, 1, 9, 3, 7, 2, 8}
	for i, d := range dists {
		sel.Offer(i, d)
	}
	res := sel.Results()
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	wantIDs := []int{1, 5, 3} // dists 1, 2, 3
	for i, want := range wantIDs {
		if res[i].ID != want {
			t.Errorf("result[%d] = %+v, want ID %d", i, res[i], want)
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	sel := NewTopK(10)
	sel.Offer(0, 1)
	sel.Offer(1, 0.5)
	res := sel.Results()
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 0 {
		t.Errorf("results = %v", res)
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	a := NewTopK(2)
	for _, id := range []int{5, 3, 9, 1} {
		a.Offer(id, 1.0)
	}
	res := a.Results()
	if res[0].ID != 1 || res[1].ID != 3 {
		t.Errorf("tie-break results = %v, want IDs 1,3", res)
	}
}

func TestTopKMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := NewTopK(10)
	parts := []*TopK{NewTopK(10), NewTopK(10), NewTopK(10)}
	for i := 0; i < 300; i++ {
		d := rng.Float32()
		all.Offer(i, d)
		parts[i%3].Offer(i, d)
	}
	merged := NewTopK(10)
	for _, p := range parts {
		merged.Merge(p)
	}
	a, b := all.Results(), merged.Results()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("merged[%d] = %+v, want %+v", i, b[i], a[i])
		}
	}
}

// Property: TopK(k) over any stream returns exactly the k smallest
// (id, dist) pairs a full sort would produce.
func TestTopKMatchesFullSort(t *testing.T) {
	f := func(seed int64, kSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kSeed%10)
		n := 1 + rng.Intn(100)
		sel := NewTopK(k)
		type pair struct {
			id int
			d  float32
		}
		items := make([]pair, n)
		for i := range items {
			items[i] = pair{i, float32(rng.Intn(20))} // many ties
			sel.Offer(items[i].id, items[i].d)
		}
		// Reference: full selection sort of all items.
		ref := make([]pair, len(items))
		copy(ref, items)
		for i := range ref {
			for j := i + 1; j < len(ref); j++ {
				if ref[j].d < ref[i].d || (ref[j].d == ref[i].d && ref[j].id < ref[i].id) {
					ref[i], ref[j] = ref[j], ref[i]
				}
			}
		}
		want := k
		if n < k {
			want = n
		}
		got := sel.Results()
		if len(got) != want {
			return false
		}
		for i := 0; i < want; i++ {
			if got[i].ID != ref[i].id || got[i].Dist != ref[i].d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceKNNAndRecall(t *testing.T) {
	db := FromRows([][]float32{
		{0, 0}, {1, 0}, {0, 1}, {5, 5}, {6, 6},
	})
	q := []float32{0.1, 0.1}
	nn := BruteForceKNN(db, q, 3)
	if nn[0].ID != 0 {
		t.Errorf("nearest = %d, want 0", nn[0].ID)
	}
	ids := map[int]bool{nn[0].ID: true, nn[1].ID: true, nn[2].ID: true}
	if !ids[0] || !ids[1] || !ids[2] {
		t.Errorf("3-NN = %v, want {0,1,2}", nn)
	}
	if r := RecallAtK(nn, nn); r != 1.0 {
		t.Errorf("self recall = %v", r)
	}
	partial := []Neighbor{{ID: 0}, {ID: 99}}
	if r := RecallAtK(partial, nn); math.Abs(r-1.0/3.0) > 1e-9 {
		t.Errorf("recall = %v, want 1/3", r)
	}
	if !math.IsNaN(RecallAtK(nn, nil)) {
		t.Error("recall with empty truth should be NaN")
	}
}

func TestL2Normalize(t *testing.T) {
	v := L2Normalize([]float32{3, 4})
	if !almostEq(v[0], 0.6, 1e-6) || !almostEq(v[1], 0.8, 1e-6) {
		t.Errorf("normalised = %v", v)
	}
	z := L2Normalize([]float32{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector changed")
	}
	if n := SquaredNorm(v); !almostEq(n, 1, 1e-6) {
		t.Errorf("norm after normalise = %v", n)
	}
}

func TestConv2DMACs(t *testing.T) {
	// VGG conv1_1: 224×224×3→64, 3×3 = 86.7 MMACs.
	got := Conv2DMACs(224, 224, 3, 64, 3)
	want := 224.0 * 224 * 3 * 64 * 9
	if got != want {
		t.Errorf("Conv2DMACs = %v, want %v", got, want)
	}
}

func BenchmarkGeMM128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(128, 128)
	c := NewMatrix(128, 128)
	for i := range a.Data {
		a.Data[i] = rng.Float32()
		c.Data[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GeMM(a, c)
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	dists := make([]float32, 4096)
	for i := range dists {
		dists[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := NewTopK(10)
		for id, d := range dists {
			sel.Offer(id, d)
		}
		sel.Results()
	}
}

func BenchmarkSquaredL2(b *testing.B) {
	p := make([]float32, 96)
	q := make([]float32, 96)
	for i := range p {
		p[i] = float32(i)
		q[i] = float32(i) * 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquaredL2(p, q)
	}
}
