package kernels

import (
	"container/heap"
	"fmt"
	"math"
)

// SquaredL2 computes ‖p − q‖² (paper Eq. 2), the similarity measure used by
// both shortlist retrieval and rerank.
func SquaredL2(p, q []float32) float32 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("kernels: SquaredL2 dim mismatch %d vs %d", len(p), len(q)))
	}
	var sum float32
	for i := range p {
		d := p[i] - q[i]
		sum += d * d
	}
	return sum
}

// SquaredNorm computes ‖v‖².
func SquaredNorm(v []float32) float32 {
	var sum float32
	for _, x := range v {
		sum += x * x
	}
	return sum
}

// BatchDistances implements the decomposition of paper Eq. 1:
//
//	dist[b][m] = ‖q_b‖² + ‖C_m‖² − 2⟨q_b, C_m⟩
//
// where queries is B×D, centroidsT is the D×M columnar centroid matrix and
// centroidNormSq the precomputed ‖C_m‖² vector. The bottleneck term
// ⟨Q, C⟩ is evaluated as one B×D × D×M GeMM — exactly how the shortlist
// kernel is structured on the FPGA — followed by the broadcast addition.
func BatchDistances(queries *Matrix, centroidsT *Matrix, centroidNormSq []float32) *Matrix {
	if queries.Cols != centroidsT.Rows {
		panic(fmt.Sprintf("kernels: BatchDistances dim mismatch D=%d vs %d", queries.Cols, centroidsT.Rows))
	}
	if len(centroidNormSq) != centroidsT.Cols {
		panic("kernels: centroid norm vector length mismatch")
	}
	dots := GeMM(queries, centroidsT) // B×M
	for b := 0; b < dots.Rows; b++ {
		qn := SquaredNorm(queries.Row(b))
		row := dots.Row(b)
		for m := range row {
			row[m] = qn + centroidNormSq[m] - 2*row[m]
		}
	}
	return dots
}

// Neighbor is one scored candidate.
type Neighbor struct {
	ID   int
	Dist float32
}

// neighborMaxHeap keeps the K smallest distances by storing a max-heap of
// size K: the root is the current worst of the best-K and is displaced by
// anything better.
type neighborMaxHeap []Neighbor

func (h neighborMaxHeap) Len() int      { return len(h) }
func (h neighborMaxHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h neighborMaxHeap) Less(i, j int) bool {
	if h[i].Dist != h[j].Dist {
		return h[i].Dist > h[j].Dist // max-heap on distance
	}
	return h[i].ID > h[j].ID // deterministic tie-break
}
func (h *neighborMaxHeap) Push(x any) { *h = append(*h, x.(Neighbor)) }
func (h *neighborMaxHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopK is the streaming partial-sort selector the rerank and shortlist
// kernels use: feed it scored candidates, read the best K at the end.
type TopK struct {
	k int
	h neighborMaxHeap
}

// NewTopK creates a selector of the K nearest (smallest-distance) items.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("kernels: TopK needs k >= 1")
	}
	return &TopK{k: k, h: make(neighborMaxHeap, 0, k+1)}
}

// Offer considers one candidate.
func (t *TopK) Offer(id int, dist float32) {
	if len(t.h) < t.k {
		heap.Push(&t.h, Neighbor{ID: id, Dist: dist})
		return
	}
	worst := t.h[0]
	if dist < worst.Dist || (dist == worst.Dist && id < worst.ID) {
		t.h[0] = Neighbor{ID: id, Dist: dist}
		heap.Fix(&t.h, 0)
	}
}

// Merge offers every result of another selector — the "Collect" reduction
// across near-storage accelerator instances.
func (t *TopK) Merge(other *TopK) {
	for _, n := range other.h {
		t.Offer(n.ID, n.Dist)
	}
}

// Len reports how many results are held (≤ K).
func (t *TopK) Len() int { return len(t.h) }

// Results returns the selected neighbours sorted by ascending distance
// (ties by ascending ID). The selector remains usable afterwards.
func (t *TopK) Results() []Neighbor {
	out := make([]Neighbor, len(t.h))
	copy(out, t.h)
	// Simple insertion sort: K is small (10 in the case study).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// BruteForceKNN scans the whole database (row-major vectors) and returns
// the K nearest to q — the exhaustive-search ground truth used for recall
// evaluation.
func BruteForceKNN(db *Matrix, q []float32, k int) []Neighbor {
	sel := NewTopK(k)
	for i := 0; i < db.Rows; i++ {
		sel.Offer(i, SquaredL2(db.Row(i), q))
	}
	return sel.Results()
}

// RecallAtK reports |found ∩ truth| / |truth| — the retrieval quality
// metric the paper argues NDP preserves (vs. lossy compression).
func RecallAtK(found, truth []Neighbor) float64 {
	if len(truth) == 0 {
		return math.NaN()
	}
	set := make(map[int]bool, len(truth))
	for _, n := range truth {
		set[n.ID] = true
	}
	hit := 0
	for _, n := range found {
		if set[n.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}
