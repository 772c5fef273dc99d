package cbir

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/workload"
)

// referenceKMeans is the brute-force Lloyd loop KMeans must match bit for
// bit: every point scans every centroid, keeping the lowest index among
// equal minima. It also reports how many empty clusters were re-seeded.
func referenceKMeans(data *kernels.Matrix, k, maxIters int, seed int64) (*KMeansResult, int) {
	n, d := data.Rows, data.Cols
	rng := rand.New(rand.NewSource(seed))
	centroids := kernels.NewMatrix(k, d)
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		copy(centroids.Row(c), data.Row(perm[c]))
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int, k)
	res := &KMeansResult{Centroids: centroids, Assign: assign}
	reseeds := 0
	for iter := 0; iter < maxIters; iter++ {
		moved := 0
		for i := 0; i < n; i++ {
			row := data.Row(i)
			best, bestD := 0, kernels.SquaredL2(row, centroids.Row(0))
			for c := 1; c < k; c++ {
				if dist := kernels.SquaredL2(row, centroids.Row(c)); dist < bestD {
					best, bestD = c, dist
				}
			}
			res.DistanceEvals += int64(k)
			if assign[i] != best {
				moved++
				assign[i] = best
			}
		}
		res.Iterations = iter + 1
		res.Moved = moved
		if moved == 0 {
			break
		}
		for i := range centroids.Data {
			centroids.Data[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			crow := centroids.Row(c)
			drow := data.Row(i)
			for j := range crow {
				crow[j] += drow[j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				copy(centroids.Row(c), data.Row(rng.Intn(n)))
				reseeds++
				continue
			}
			inv := 1 / float32(counts[c])
			crow := centroids.Row(c)
			for j := range crow {
				crow[j] *= inv
			}
		}
	}
	return res, reseeds
}

// duplicatedPoints returns n points drawn from only `distinct` values on a
// coarse integer grid, so many distances tie exactly.
func duplicatedPoints(n, d, distinct int, seed int64) *kernels.Matrix {
	rng := rand.New(rand.NewSource(seed))
	base := kernels.NewMatrix(distinct, d)
	for i := range base.Data {
		base.Data[i] = float32(rng.Intn(5))
	}
	m := kernels.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		copy(m.Row(i), base.Row(rng.Intn(distinct)))
	}
	return m
}

func synthetic(n, d, clusters int, seed int64) *kernels.Matrix {
	return workload.Synthetic(workload.SyntheticParams{
		N: n, D: d, Clusters: clusters, Spread: 0.08, Seed: seed,
	}).Vectors
}

// pqSubspace slices columns [lo, lo+width) out of m, the matrix TrainPQ
// clusters for one subspace.
func pqSubspace(m *kernels.Matrix, lo, width int) *kernels.Matrix {
	sub := kernels.NewMatrix(m.Rows, width)
	for i := 0; i < m.Rows; i++ {
		copy(sub.Row(i), m.Row(i)[lo:lo+width])
	}
	return sub
}

func TestKMeansMatchesReferenceBitForBit(t *testing.T) {
	pq := synthetic(2048, 32, 16, 21)
	cases := []struct {
		name          string
		data          *kernels.Matrix
		k, iters      int
		seed          int64
		wantReseeds   bool
		wantMultiIter bool
	}{
		{"overclustered-64d", synthetic(3000, 64, 12, 1), 160, 12, 2, false, true},
		{"pq-d4-k256", pqSubspace(pq, 8, 4), 256, 12, 3, false, true},
		{"pq-d8-k256", pqSubspace(pq, 16, 8), 256, 12, 4, false, true},
		{"k1", synthetic(300, 16, 4, 5), 1, 10, 6, false, false},
		{"k-equals-n", synthetic(120, 8, 4, 7), 120, 10, 8, false, false},
		{"one-iteration", synthetic(800, 32, 8, 9), 64, 1, 10, false, false},
		{"duplicates-reseed", duplicatedPoints(600, 6, 25, 11), 60, 15, 12, true, true},
		{"duplicates-ties", duplicatedPoints(1500, 3, 40, 13), 24, 15, 14, false, true},
		// Low-dimensional shapes where points leave a centroid whose group
		// the filter skipped, so that group's bound must take the old
		// centroid in.
		{"leave-skipped-group-d2", synthetic(600, 2, 3, 200), 30, 20, 200, false, true},
		{"leave-skipped-group-d3", synthetic(600, 3, 4, 116), 66, 20, 116, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, want, reseeds := matchReference(t, tc.data, tc.k, tc.iters, tc.seed)
			if tc.wantReseeds && reseeds == 0 {
				t.Fatal("shape never re-seeds an empty cluster")
			}
			if tc.wantMultiIter && want.Iterations < 2 {
				t.Fatalf("shape converged in %d iteration", want.Iterations)
			}
		})
	}

	// Shapes at the edges of the filter, each checked to reach its edge,
	// with the distance evaluations pinned.
	edges := []struct {
		name     string
		data     *kernels.Matrix
		k, iters int
		seed     int64
		evals    int64
		edge     string
		reached  func(data *kernels.Matrix, k int, seed int64, want *KMeansResult) bool
	}{
		// groupCentroids leaves one of the 4 groups with no centroid.
		{"empty-group-seed43", duplicatedPoints(400, 4, 10, 43), 40, 15, 43, 237_968, "an empty group", hasEmptyGroup},
		{"empty-group-seed380", duplicatedPoints(400, 4, 10, 380), 40, 15, 380, 112_000, "an empty group", hasEmptyGroup},
		// Squared distances that overflow float32 to +Inf: 90 of the
		// 24,000 from each point to the first 40 at 1e19, 20,049 at 3e19.
		{"overflowing-distances-1e19", scaled(synthetic(600, 8, 6, 31), 1e19), 40, 10, 5, 55_757, "a +Inf distance", hasInfDistance},
		{"overflowing-distances-3e19", scaled(synthetic(600, 8, 6, 31), 3e19), 40, 10, 5, 146_589, "a +Inf distance", hasInfDistance},
		// Centroid sums that overflow, leaving coordinates at ±Inf.
		{"overflowing-centroids", scaled(synthetic(600, 4, 6, 31), 3e37), 40, 10, 5, 47_886, "a ±Inf centroid", hasInfCentroid},
	}
	for _, tc := range edges {
		t.Run(tc.name, func(t *testing.T) {
			got, want, _ := matchReference(t, tc.data, tc.k, tc.iters, tc.seed)
			if !tc.reached(tc.data, tc.k, tc.seed, want) {
				t.Fatalf("shape never reaches %s", tc.edge)
			}
			if got.DistanceEvals != tc.evals {
				t.Errorf("%d distance evaluations, want exactly %d", got.DistanceEvals, tc.evals)
			}
		})
	}
}

// matchReference runs KMeans and referenceKMeans on one shape and fails
// unless they agree bit for bit, returning both results and the
// reference's re-seed count.
func matchReference(t *testing.T, data *kernels.Matrix, k, iters int, seed int64) (got, want *KMeansResult, reseeds int) {
	t.Helper()
	want, reseeds = referenceKMeans(data, k, iters, seed)
	got, err := KMeans(data, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || got.Moved != want.Moved {
		t.Fatalf("iterations/moved %d/%d, reference %d/%d",
			got.Iterations, got.Moved, want.Iterations, want.Moved)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("point %d assigned %d, reference %d", i, got.Assign[i], want.Assign[i])
		}
	}
	for i, v := range want.Centroids.Data {
		if math.Float32bits(got.Centroids.Data[i]) != math.Float32bits(v) {
			t.Fatalf("centroid word %d = %v, reference %v", i, got.Centroids.Data[i], v)
		}
	}
	t.Logf("%d iterations, %.3f of brute force's distance evaluations",
		got.Iterations, float64(got.DistanceEvals)/float64(want.DistanceEvals))
	if got.DistanceEvals > want.DistanceEvals {
		t.Errorf("%d distance evaluations, more than brute force's %d", got.DistanceEvals, want.DistanceEvals)
	}
	return got, want, reseeds
}

// scaled returns m with every value multiplied by s.
func scaled(m *kernels.Matrix, s float32) *kernels.Matrix {
	out := kernels.NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v * s
	}
	return out
}

// hasEmptyGroup reports whether KMeans' Yinyang filter, seeded as KMeans
// seeds it, forms a centroid group with no centroid.
func hasEmptyGroup(data *kernels.Matrix, k int, seed int64, _ *KMeansResult) bool {
	perm := rand.New(rand.NewSource(seed)).Perm(data.Rows)
	centroids := kernels.NewMatrix(k, data.Cols)
	for c := range k {
		copy(centroids.Row(c), data.Row(perm[c]))
	}
	y, err := newYinyang(data, centroids, seed)
	if err != nil {
		panic(err)
	}
	for g := range len(y.start) - 1 {
		if y.start[g] == y.start[g+1] {
			return true
		}
	}
	return false
}

// hasInfDistance reports whether a squared distance from some point to
// one of the first k points overflows to +Inf.
func hasInfDistance(data *kernels.Matrix, k int, _ int64, _ *KMeansResult) bool {
	for i := range data.Rows {
		for r := range k {
			if math.IsInf(float64(kernels.SquaredL2(data.Row(i), data.Row(r))), 1) {
				return true
			}
		}
	}
	return false
}

// hasInfCentroid reports whether the reference ends with a ±Inf centroid
// coordinate.
func hasInfCentroid(_ *kernels.Matrix, _ int, _ int64, want *KMeansResult) bool {
	for _, v := range want.Centroids.Data {
		if math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}

// TestKMeansSkipsMostDistances pins the point of the Yinyang filter: on an
// over-clustered set most squared-L2 evaluations are skipped. The count
// is exact, so a change to how distances are computed must leave it be.
func TestKMeansSkipsMostDistances(t *testing.T) {
	data := synthetic(4096, 64, 16, 31)
	const k = 256
	km, err := KMeans(data, k, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	full := int64(data.Rows) * k * int64(km.Iterations)
	if km.Iterations < 10 {
		t.Fatalf("shape converged after %d iterations; too few to measure filtering", km.Iterations)
	}
	t.Logf("%d iterations, %.3f of a full scan", km.Iterations, float64(km.DistanceEvals)/float64(full))
	if float64(km.DistanceEvals) >= 0.35*float64(full) {
		t.Errorf("%d distance evaluations = %.2f of a full scan, want < 0.35",
			km.DistanceEvals, float64(km.DistanceEvals)/float64(full))
	}
	if want := int64(1_538_120); km.DistanceEvals != want {
		t.Errorf("%d distance evaluations, want exactly %d", km.DistanceEvals, want)
	}
}

// TestKMeansRecallSweepWorkCount pins the exact work of the k-means that
// reachsim -exp all runs: recallsweep's 256-cell index over 32,768 64-D
// vectors, and the first subspace of each of motivation's two product
// quantizers, 256 centroids over 8,192 points.
func TestKMeansRecallSweepWorkCount(t *testing.T) {
	recall := workload.Synthetic(workload.SyntheticParams{
		N: 1 << 15, D: 64, Clusters: 64, Spread: 0.1, Seed: 4242,
	}).Vectors
	motivation := workload.Synthetic(workload.SyntheticParams{
		N: 8192, D: 32, Clusters: 32, Spread: 0.12, Seed: 2020,
	}).Vectors
	cases := []struct {
		name      string
		data      *kernels.Matrix
		k, iters  int
		seed      int64
		wantIters int
		wantEvals int64
	}{
		{"recallsweep", recall, 256, 15, 17, 15, 21_263_717},
		{"motivation-pq-8B", pqSubspace(motivation, 0, 4), 256, 12, 12, 12, 3_861_269},
		{"motivation-pq-4B", pqSubspace(motivation, 0, 8), 256, 12, 13, 12, 5_064_436},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			km, err := KMeans(tc.data, tc.k, tc.iters, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			if km.Iterations != tc.wantIters || km.DistanceEvals != tc.wantEvals {
				t.Errorf("%d iterations, %d distance evaluations; want %d and %d",
					km.Iterations, km.DistanceEvals, tc.wantIters, tc.wantEvals)
			}
		})
	}
}

// TestEmptyGroupBoundIsVacuous pins the bound of a group with no
// centroid: a scan sets it to sqrtDown(+Inf), above any distance a point
// can skip by, so the empty group never keeps a point from passing the
// global test. Centroids 0 and 1 form group 0, centroid 2 group 2, and
// group 1 is empty; the point lies near centroid 0.
func TestEmptyGroupBoundIsVacuous(t *testing.T) {
	data := kernels.NewMatrix(1, 2)
	copy(data.Row(0), []float32{0.5, 0.25})
	centroids := kernels.NewMatrix(3, 2)
	copy(centroids.Data, []float32{0, 0, 10, 0, 0, 10})
	y := groupedYinyang(data, centroids, []int{0, 0, 2}, 3)

	// The first call scans every group: a's distance, centroid 1 beside it
	// and centroid 2.
	best, evals := y.nearest(0, -1)
	if best != 0 || evals != 3 {
		t.Fatalf("first call: centroid %d after %d evaluations, want 0 after 3", best, evals)
	}
	if got, want := y.lb[1], sqrtDown(float32(math.Inf(1))); got != want {
		t.Errorf("empty group's bound %g after a scan, want sqrtDown(+Inf) = %g", got, want)
	}
	best, evals = y.nearest(0, best)
	if best != 0 || evals != 0 {
		t.Errorf("second call: centroid %d after %d evaluations, want 0 by the global test alone", best, evals)
	}
}

// TestKMeansSplitInvariant runs KMeans at GOMAXPROCS 1, 2 and 5, so the
// assignment step runs inline and over two and five ranges of points, and
// requires the same assignments, iterations, moves, centroid bits and
// distance evaluations from each. make race runs it under the race
// detector.
func TestKMeansSplitInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		name     string
		data     *kernels.Matrix
		k, iters int
		seed     int64
	}{
		// 5,123 points split into ranges of 1,024 and 1,025.
		{"overclustered-64d", synthetic(5123, 64, 16, 31), 256, 12, 5},
		{"pq-d4-k256", pqSubspace(synthetic(8192, 32, 32, 2020), 0, 4), 256, 12, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first *KMeansResult
			for _, procs := range []int{1, 2, 5} {
				runtime.GOMAXPROCS(procs)
				if parts := assignParts(tc.data.Rows); parts != procs {
					t.Fatalf("GOMAXPROCS %d: %d points split into %d ranges", procs, tc.data.Rows, parts)
				}
				got, err := KMeans(tc.data, tc.k, tc.iters, tc.seed)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = got
					t.Logf("%d iterations, %d distance evaluations", got.Iterations, got.DistanceEvals)
					if got.Iterations < 2 {
						t.Fatalf("shape converged in %d iteration", got.Iterations)
					}
					continue
				}
				if got.Iterations != first.Iterations || got.Moved != first.Moved || got.DistanceEvals != first.DistanceEvals {
					t.Errorf("GOMAXPROCS %d: iterations/moved/evaluations %d/%d/%d, at 1: %d/%d/%d", procs,
						got.Iterations, got.Moved, got.DistanceEvals, first.Iterations, first.Moved, first.DistanceEvals)
				}
				for i, c := range first.Assign {
					if got.Assign[i] != c {
						t.Fatalf("GOMAXPROCS %d: point %d assigned %d, at 1: %d", procs, i, got.Assign[i], c)
					}
				}
				for i, v := range first.Centroids.Data {
					if math.Float32bits(got.Centroids.Data[i]) != math.Float32bits(v) {
						t.Fatalf("GOMAXPROCS %d: centroid word %d = %v, at 1: %v", procs, i, got.Centroids.Data[i], v)
					}
				}
			}
		})
	}
}

// TestSkipTestKeepsFloat32NearTies pins the slack of the skip test: two
// squared distances within the float32 error bound of each other —
// (D+2)·2⁻²⁴ relative plus D·2⁻¹⁴⁹ absolute from underflow — could compare
// either way once rounded, so the bounds derived from them must never let
// the farther one's group be skipped.
func TestSkipTestKeepsFloat32NearTies(t *testing.T) {
	for _, d := range []int{1, 4, 8, 64, 512} {
		y, err := newYinyang(synthetic(64, d, 4, 1), synthetic(16, d, 4, 2), 1)
		if err != nil {
			t.Fatal(err)
		}
		rel, abs := 1+float64(d+2)*0x1p-24, float64(d)*0x1p-149
		for _, sq := range []float32{0, 1e-40, 1e-20, 0.37, 1, 6.5e3, 1e30, math.MaxFloat32 / 4} {
			near := float32(float64(sq)*rel + abs)
			if float64(sqrtDown(near)) > y.threshold(sqrtUp(sq)) {
				t.Errorf("D=%d: distance %g skipped against %g", d, near, sq)
			}
		}
	}
}

// TestBoundRoundingIsStrict pins the safe-side stores: a float64 bound
// that is off by one float64 rounding must still bound after narrowing.
func TestBoundRoundingIsStrict(t *testing.T) {
	for _, v := range []float64{0x1p-149, 1e-40, 0.1, 1, 3, 1 << 24, 1e30, math.MaxFloat32} {
		for _, w := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			if up := float64(roundUp(w)); !(up > w) {
				t.Errorf("roundUp(%g) = %g", w, up)
			}
			if down := float64(roundDown(w)); !(down < w && down >= 0) {
				t.Errorf("roundDown(%g) = %g", w, down)
			}
		}
	}
	if got := roundUp(2 * math.MaxFloat32); !math.IsInf(float64(got), 1) {
		t.Errorf("roundUp beyond float32 range = %g, want +Inf", got)
	}
	if got := sqrtDown(float32(math.Inf(1))); float64(got)*float64(got) > math.MaxFloat32 {
		t.Errorf("sqrtDown(+Inf) = %g, above √MaxFloat32", got)
	}
}

func TestKMeansRejectsNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		data := synthetic(64, 8, 4, 41)
		data.Set(17, 3, bad)
		data.Set(40, 0, bad)
		_, err := KMeans(data, 4, 5, 1)
		if err == nil || !strings.Contains(err.Error(), "row 17") {
			t.Errorf("value %v: err = %v, want one naming row 17", bad, err)
		}
		_, err = TrainPQ(data, PQParams{Subspaces: 4, CentroidsPerSub: 8, KMeansIters: 5, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "row 17") {
			t.Errorf("TrainPQ value %v: err = %v, want one naming row 17", bad, err)
		}
	}
}
