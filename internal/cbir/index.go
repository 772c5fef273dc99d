package cbir

import (
	"fmt"
	"sort"

	"repro/internal/kernels"
)

// Index is the IVF index produced by the offline stage: k-means centroids,
// precomputed ‖C_m‖² (the reusable term of Eq. 1), and per-cluster point
// lists (the "cell info" of Table I).
type Index struct {
	Vectors      *kernels.Matrix // N × D, the database (resident "on SSD")
	Centroids    *kernels.Matrix // M × D
	CentroidsT   *kernels.Matrix // D × M, columnar layout for the GeMM
	CentroidNorm []float32       // M, precomputed ‖C_m‖²
	Lists        [][]int         // M, point IDs per cluster
}

// BuildIndex clusters the database into m cells.
func BuildIndex(vectors *kernels.Matrix, m, kmeansIters int, seed int64) (*Index, error) {
	km, err := KMeans(vectors, m, kmeansIters, seed)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		Vectors:      vectors,
		Centroids:    km.Centroids,
		CentroidsT:   km.Centroids.Transpose(),
		CentroidNorm: make([]float32, m),
		Lists:        make([][]int, m),
	}
	for c := 0; c < m; c++ {
		idx.CentroidNorm[c] = kernels.SquaredNorm(km.Centroids.Row(c))
	}
	for i, c := range km.Assign {
		idx.Lists[c] = append(idx.Lists[c], i)
	}
	return idx, nil
}

// M reports the cluster count.
func (ix *Index) M() int { return ix.Centroids.Rows }

// Shortlist returns, for each query in the batch, the `probes` cluster IDs
// with the smallest Eq. 1 distances — the shortlist-retrieval stage. The
// heavy lifting is one B×D × D×M GeMM, exactly the kernel mapped to the
// near-memory accelerators.
func (ix *Index) Shortlist(queries *kernels.Matrix, probes int) ([][]int, error) {
	if probes <= 0 || probes > ix.M() {
		return nil, fmt.Errorf("cbir: probes=%d invalid for M=%d", probes, ix.M())
	}
	dists := kernels.BatchDistances(queries, ix.CentroidsT, ix.CentroidNorm)
	out := make([][]int, queries.Rows)
	for b := 0; b < queries.Rows; b++ {
		sel := kernels.NewTopK(probes)
		row := dists.Row(b)
		for m := range row {
			sel.Offer(m, row[m])
		}
		res := sel.Results()
		ids := make([]int, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		out[b] = ids
	}
	return out, nil
}

// searchShortlists validates a Search call, then shortlists its queries.
// The three Search methods share it, so each rejects a bad K, Candidates
// or query width, and Shortlist a bad Probes, with an error naming it.
func (ix *Index) searchShortlists(queries *kernels.Matrix, p SearchParams) ([][]int, error) {
	if d := ix.Centroids.Cols; queries.Cols != d {
		return nil, fmt.Errorf("cbir: queries have D=%d, index has D=%d", queries.Cols, d)
	}
	if p.K < 1 {
		return nil, fmt.Errorf("cbir: K=%d invalid, need K >= 1", p.K)
	}
	if p.Candidates < 1 {
		return nil, fmt.Errorf("cbir: Candidates=%d invalid, need Candidates >= 1", p.Candidates)
	}
	return ix.Shortlist(queries, p.Probes)
}

// Candidates gathers up to maxCandidates point IDs from the probed
// clusters, round-robin across clusters so each probed cell contributes —
// the candidate-list formation of the rerank stage.
func (ix *Index) Candidates(clusters []int, maxCandidates int) []int {
	if maxCandidates <= 0 {
		return nil
	}
	// Size the result by what the probed lists hold, not by the budget,
	// which callers may leave uncapped.
	probed := 0
	for _, c := range clusters {
		probed += len(ix.Lists[c])
	}
	out := make([]int, 0, min(maxCandidates, probed))
	offsets := make([]int, len(clusters))
	for len(out) < maxCandidates {
		progress := false
		for ci, c := range clusters {
			if offsets[ci] >= len(ix.Lists[c]) {
				continue
			}
			out = append(out, ix.Lists[c][offsets[ci]])
			offsets[ci]++
			progress = true
			if len(out) == maxCandidates {
				break
			}
		}
		if !progress {
			break // probed clusters exhausted
		}
	}
	return out
}

// Rerank scores the candidates against the query with the exact Eq. 2
// distance and returns the top-K — the near-storage stage.
func (ix *Index) Rerank(query []float32, candidates []int, k int) []kernels.Neighbor {
	sel := kernels.NewTopK(k)
	for _, id := range candidates {
		sel.Offer(id, kernels.SquaredL2(ix.Vectors.Row(id), query))
	}
	return sel.Results()
}

// SearchParams bundles the online-pipeline knobs.
type SearchParams struct {
	Probes     int
	Candidates int
	K          int
}

// Search runs shortlist → candidates → rerank for a batch of queries.
func (ix *Index) Search(queries *kernels.Matrix, p SearchParams) ([][]kernels.Neighbor, error) {
	shortlists, err := ix.searchShortlists(queries, p)
	if err != nil {
		return nil, err
	}
	out := make([][]kernels.Neighbor, queries.Rows)
	for b := 0; b < queries.Rows; b++ {
		cands := ix.Candidates(shortlists[b], p.Candidates)
		out[b] = ix.Rerank(queries.Row(b), cands, p.K)
	}
	return out, nil
}

// Searcher is an index a Truth can score: Index, PQIndex and
// BinaryIndex.
type Searcher interface {
	Search(queries *kernels.Matrix, p SearchParams) ([][]kernels.Neighbor, error)
}

// Truth is the exhaustive-search ground truth of a query batch: each
// query's K nearest database vectors. It costs a scan of the whole
// database per query, so build it once per batch and score every index
// and setting against it.
type Truth struct {
	queries *kernels.Matrix
	k       int
	nn      [][]kernels.Neighbor
}

// GroundTruth scans vectors for each query's k nearest.
func GroundTruth(vectors, queries *kernels.Matrix, k int) (*Truth, error) {
	if queries.Cols != vectors.Cols {
		return nil, fmt.Errorf("cbir: queries have D=%d, database has D=%d", queries.Cols, vectors.Cols)
	}
	if k < 1 {
		return nil, fmt.Errorf("cbir: K=%d invalid, need K >= 1", k)
	}
	t := &Truth{queries: queries, k: k, nn: make([][]kernels.Neighbor, queries.Rows)}
	for b := range t.nn {
		t.nn[b] = kernels.BruteForceKNN(vectors, queries.Row(b), k)
	}
	return t, nil
}

// RecallAtK searches ix with the truth's queries and reports the mean
// recall@K against it; p.K must be the truth's K.
func (t *Truth) RecallAtK(ix Searcher, p SearchParams) (float64, error) {
	if p.K != t.k {
		return 0, fmt.Errorf("cbir: K=%d, but the ground truth holds K=%d", p.K, t.k)
	}
	found, err := ix.Search(t.queries, p)
	if err != nil {
		return 0, err
	}
	return t.Recall(found)
}

// Recall reports the mean recall@K of found, one result list per query
// of the truth's batch in order, against the truth.
func (t *Truth) Recall(found [][]kernels.Neighbor) (float64, error) {
	if len(found) != len(t.nn) {
		return 0, fmt.Errorf("cbir: %d result lists, but the ground truth holds %d queries", len(found), len(t.nn))
	}
	var sum float64
	for b, nn := range t.nn {
		sum += kernels.RecallAtK(found[b], nn)
	}
	return sum / float64(len(t.nn)), nil
}

// ListSizeStats reports min/median/max cluster occupancy — used to check
// the clustering is balanced enough for the per-DIMM partitioning.
func (ix *Index) ListSizeStats() (minSize, median, maxSize int) {
	sizes := make([]int, len(ix.Lists))
	for i, l := range ix.Lists {
		sizes[i] = len(l)
	}
	sort.Ints(sizes)
	return sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1]
}
