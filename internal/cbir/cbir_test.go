package cbir

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/workload"
)

func testDataset(t *testing.T, n, d, clusters int) *workload.Dataset {
	t.Helper()
	return workload.Synthetic(workload.SyntheticParams{
		N: n, D: d, Clusters: clusters, Spread: 0.06, Seed: 123,
	})
}

func TestKMeansConvergesOnSeparatedClusters(t *testing.T) {
	ds := testDataset(t, 1200, 16, 6)
	km, err := KMeans(ds.Vectors, 6, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if km.Moved != 0 {
		t.Errorf("kmeans did not converge in 50 iters (moved=%d)", km.Moved)
	}
	// Each found centroid should be very near one generating centre.
	for c := 0; c < 6; c++ {
		best := float32(1e30)
		for g := 0; g < 6; g++ {
			if d := kernels.SquaredL2(km.Centroids.Row(c), ds.Centers.Row(g)); d < best {
				best = d
			}
		}
		if best > 0.25 {
			t.Errorf("centroid %d is %.3f away from every generating centre", c, best)
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	ds := testDataset(t, 400, 8, 4)
	a, _ := KMeans(ds.Vectors, 4, 20, 7)
	b, _ := KMeans(ds.Vectors, 4, 20, 7)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same-seed kmeans differs")
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	ds := testDataset(t, 10, 4, 2)
	if _, err := KMeans(ds.Vectors, 0, 10, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(ds.Vectors, 11, 10, 1); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := KMeans(ds.Vectors, 2, 0, 1); err == nil {
		t.Error("maxIters=0 accepted")
	}
}

func TestKMeansAssignmentsAreNearest(t *testing.T) {
	ds := testDataset(t, 500, 8, 5)
	km, _ := KMeans(ds.Vectors, 5, 30, 2)
	// Post-convergence invariant: every point is assigned to its nearest
	// centroid.
	for i := 0; i < ds.N(); i++ {
		row := ds.Vectors.Row(i)
		best, bestD := 0, kernels.SquaredL2(row, km.Centroids.Row(0))
		for c := 1; c < 5; c++ {
			if d := kernels.SquaredL2(row, km.Centroids.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		if km.Assign[i] != best {
			t.Fatalf("point %d assigned to %d, nearest is %d", i, km.Assign[i], best)
		}
	}
}

func TestIndexListsPartitionDatabase(t *testing.T) {
	ds := testDataset(t, 2000, 16, 8)
	ix, err := BuildIndex(ds.Vectors, 8, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, ds.N())
	total := 0
	for _, list := range ix.Lists {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("point %d in two lists", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != ds.N() {
		t.Errorf("lists cover %d points, want %d", total, ds.N())
	}
	lo, med, hi := ix.ListSizeStats()
	if lo < 0 || med <= 0 || hi < med {
		t.Errorf("list stats %d/%d/%d inconsistent", lo, med, hi)
	}
}

func TestShortlistFindsQueryCluster(t *testing.T) {
	ds := testDataset(t, 3000, 24, 10)
	ix, _ := BuildIndex(ds.Vectors, 10, 30, 4)
	queries := ds.Queries(8, 0.01, 99)
	lists, err := ix.Shortlist(queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < queries.Rows; b++ {
		if len(lists[b]) != 2 {
			t.Fatalf("query %d got %d probes", b, len(lists[b]))
		}
		// The top probe must be the centroid nearest the query.
		q := queries.Row(b)
		best, bestD := 0, kernels.SquaredL2(q, ix.Centroids.Row(0))
		for c := 1; c < ix.M(); c++ {
			if d := kernels.SquaredL2(q, ix.Centroids.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		if lists[b][0] != best {
			t.Errorf("query %d top probe %d, nearest centroid %d", b, lists[b][0], best)
		}
	}
	if _, err := ix.Shortlist(queries, 0); err == nil {
		t.Error("probes=0 accepted")
	}
	if _, err := ix.Shortlist(queries, ix.M()+1); err == nil {
		t.Error("probes>M accepted")
	}
}

func TestCandidatesRoundRobinAndBounds(t *testing.T) {
	ds := testDataset(t, 1000, 8, 4)
	ix, _ := BuildIndex(ds.Vectors, 4, 20, 5)
	clusters := []int{0, 1}
	cands := ix.Candidates(clusters, 50)
	if len(cands) != 50 {
		t.Errorf("got %d candidates, want 50", len(cands))
	}
	// All candidates must come from the probed clusters.
	inProbed := map[int]bool{}
	for _, c := range clusters {
		for _, id := range ix.Lists[c] {
			inProbed[id] = true
		}
	}
	for _, id := range cands {
		if !inProbed[id] {
			t.Fatalf("candidate %d not in probed clusters", id)
		}
	}
	// Asking for more than available returns everything once.
	all := ix.Candidates(clusters, 1<<20)
	probed := len(ix.Lists[0]) + len(ix.Lists[1])
	if len(all) != probed {
		t.Errorf("exhaustive gather = %d, want %d", len(all), probed)
	}
	// An uncapped budget, such as recallsweep's 1<<20, must not size the
	// result.
	if cap(all) > probed {
		t.Errorf("exhaustive gather has cap %d, want at most the %d probed points", cap(all), probed)
	}
	if got := ix.Candidates(clusters, 0); got != nil {
		t.Errorf("zero candidates returned %v", got)
	}
}

func TestRerankExactOverCandidates(t *testing.T) {
	ds := testDataset(t, 800, 16, 4)
	ix, _ := BuildIndex(ds.Vectors, 4, 20, 6)
	q := ds.Queries(1, 0.01, 55).Row(0)
	cands := ix.Candidates([]int{0, 1, 2, 3}, 800)
	got := ix.Rerank(q, cands, 5)
	want := kernels.BruteForceKNN(ds.Vectors, q, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rerank over all candidates differs from brute force at %d: %+v vs %+v",
				i, got[i], want[i])
		}
	}
}

func TestEndToEndRecall(t *testing.T) {
	// The headline functional property: IVF search with modest probing
	// preserves high recall (the paper's argument for NDP over lossy
	// compression).
	ds := testDataset(t, 8000, 32, 32)
	ix, err := BuildIndex(ds.Vectors, 32, 25, 8)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(ds.Vectors, ds.Queries(16, 0.02, 777), 10)
	if err != nil {
		t.Fatal(err)
	}
	recall, err := truth.RecallAtK(ix, SearchParams{Probes: 8, Candidates: 2048, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if recall < 0.9 {
		t.Errorf("recall@10 = %.3f, want >= 0.9", recall)
	}
	// Fewer probes must not increase recall.
	lowRecall, _ := truth.RecallAtK(ix, SearchParams{Probes: 1, Candidates: 2048, K: 10})
	if lowRecall > recall+1e-9 {
		t.Errorf("recall with 1 probe (%.3f) exceeds recall with 8 (%.3f)", lowRecall, recall)
	}
}

func TestSearchReturnsKResults(t *testing.T) {
	ds := testDataset(t, 1000, 16, 8)
	ix, _ := BuildIndex(ds.Vectors, 8, 20, 9)
	queries := ds.Queries(4, 0.02, 11)
	res, err := ix.Search(queries, SearchParams{Probes: 3, Candidates: 256, K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d result sets", len(res))
	}
	for b, r := range res {
		if len(r) != 7 {
			t.Errorf("query %d returned %d results, want 7", b, len(r))
		}
		for i := 1; i < len(r); i++ {
			if r[i].Dist < r[i-1].Dist {
				t.Errorf("query %d results not sorted", b)
			}
		}
	}
}

// TestSearchRejectsBadParams checks that every index type's search
// returns an error naming the bad field, where it used to panic or report
// recall 0.
func TestSearchRejectsBadParams(t *testing.T) {
	ds := testDataset(t, 600, 16, 8)
	exact, err := BuildIndex(ds.Vectors, 8, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := BuildPQIndex(exact, PQParams{Subspaces: 4, CentroidsPerSub: 16, KMeansIters: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := BuildBinaryIndex(exact, 64, 109)
	if err != nil {
		t.Fatal(err)
	}
	indexes := map[string]Searcher{"Index": exact, "PQIndex": pq, "BinaryIndex": bin}

	queries := ds.Queries(3, 0.02, 11)
	wide := kernels.NewMatrix(queries.Rows, queries.Cols+1)
	good := SearchParams{Probes: 2, Candidates: 64, K: 5}
	cases := []struct {
		name    string
		queries *kernels.Matrix
		mutate  func(*SearchParams)
		want    string
	}{
		{"K=0", queries, func(p *SearchParams) { p.K = 0 }, "K=0"},
		{"K=-1", queries, func(p *SearchParams) { p.K = -1 }, "K=-1"},
		{"Candidates=0", queries, func(p *SearchParams) { p.Candidates = 0 }, "Candidates=0"},
		{"Candidates=-1", queries, func(p *SearchParams) { p.Candidates = -1 }, "Candidates=-1"},
		{"wide queries", wide, func(*SearchParams) {}, fmt.Sprintf("D=%d", wide.Cols)},
	}
	truth, err := GroundTruth(ds.Vectors, queries, good.K)
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range indexes {
		if _, err := truth.RecallAtK(ix, good); err != nil {
			t.Fatalf("%s: valid params rejected: %v", name, err)
		}
		for _, c := range cases {
			p := good
			c.mutate(&p)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s, %s: panicked: %v", name, c.name, r)
					}
				}()
				res, err := ix.Search(c.queries, p)
				if err == nil {
					t.Errorf("%s, %s: %d result sets, no error", name, c.name, len(res))
				} else if !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s, %s: error %q does not name %q", name, c.name, err, c.want)
				}
			}()
		}
	}
}

// TestGroundTruthRejectsBadInput checks that a ground truth refuses
// queries of the wrong width or a K below 1, a recall at another K than
// it holds, and results for another number of queries, with errors naming
// the value.
func TestGroundTruthRejectsBadInput(t *testing.T) {
	ds := testDataset(t, 300, 16, 4)
	ix, err := BuildIndex(ds.Vectors, 4, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries(3, 0.02, 11)
	if _, err := GroundTruth(ds.Vectors, kernels.NewMatrix(3, 17), 5); err == nil || !strings.Contains(err.Error(), "D=17") {
		t.Errorf("17-wide queries on a 16-wide database: err = %v", err)
	}
	if _, err := GroundTruth(ds.Vectors, queries, 0); err == nil || !strings.Contains(err.Error(), "K=0") {
		t.Errorf("K=0: err = %v", err)
	}
	truth, err := GroundTruth(ds.Vectors, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := truth.RecallAtK(ix, SearchParams{Probes: 2, Candidates: 64, K: 3}); err == nil || !strings.Contains(err.Error(), "K=3") {
		t.Errorf("recall@3 against a K=5 truth: err = %v", err)
	}
	found, err := ix.Search(ds.Queries(2, 0.02, 11), SearchParams{Probes: 2, Candidates: 64, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := truth.Recall(found); err == nil || !strings.Contains(err.Error(), "2 result lists") {
		t.Errorf("2 result lists against a 3-query truth: err = %v", err)
	}
}
