package cbir

import (
	"fmt"
	"math"

	"repro/internal/kernels"
)

// Product quantization (PQ) is the compression baseline the paper's
// motivation argues against (§IV-A): binary codes and product quantization
// "reduce the dimensionality of feature vectors, leading to orders of
// magnitude reduction in data visited; however, these methods
// significantly penalize the recall accuracy". This file implements PQ so
// the repository can quantify that trade-off directly: the motivation
// experiment compares IVF + exact rerank (what ReACH accelerates) against
// IVF-PQ at matched probe counts.

// PQParams configures a product quantizer.
type PQParams struct {
	// Subspaces (m) splits the D-dimensional vector into m sub-vectors.
	Subspaces int
	// CentroidsPerSub (k*) is the codebook size per subspace (8-bit codes
	// use 256).
	CentroidsPerSub int
	// KMeansIters bounds the per-subspace clustering.
	KMeansIters int
	Seed        int64
}

// DefaultPQParams returns an 8-subspace, 8-bit-per-subspace quantizer:
// a 96-dim float32 vector (384 B) compresses to 8 bytes — 48×.
func DefaultPQParams() PQParams {
	return PQParams{Subspaces: 8, CentroidsPerSub: 256, KMeansIters: 15, Seed: 7}
}

// PQ is a trained product quantizer.
type PQ struct {
	m      int // subspaces
	subDim int
	k      int               // centroids per subspace
	books  []*kernels.Matrix // m codebooks, each k × subDim
	lanes  []kernels.Lanes   // the m codebooks, lane-blocked for scoring
}

// TrainPQ fits codebooks on training vectors.
func TrainPQ(train *kernels.Matrix, p PQParams) (*PQ, error) {
	if p.Subspaces <= 0 || train.Cols%p.Subspaces != 0 {
		return nil, fmt.Errorf("cbir: D=%d not divisible into %d subspaces", train.Cols, p.Subspaces)
	}
	if p.CentroidsPerSub <= 0 || p.CentroidsPerSub > train.Rows {
		return nil, fmt.Errorf("cbir: need 1 <= k* (%d) <= n (%d)", p.CentroidsPerSub, train.Rows)
	}
	if err := checkFinite(train); err != nil {
		return nil, err
	}
	subDim := train.Cols / p.Subspaces
	pq := &PQ{m: p.Subspaces, subDim: subDim, k: p.CentroidsPerSub}
	for s := 0; s < p.Subspaces; s++ {
		sub := kernels.NewMatrix(train.Rows, subDim)
		for i := 0; i < train.Rows; i++ {
			copy(sub.Row(i), train.Row(i)[s*subDim:(s+1)*subDim])
		}
		km, err := KMeans(sub, p.CentroidsPerSub, p.KMeansIters, p.Seed+int64(s))
		if err != nil {
			return nil, err
		}
		pq.books = append(pq.books, km.Centroids)
	}
	all := make([]int, pq.k)
	for c := range all {
		all[c] = c
	}
	pq.lanes = make([]kernels.Lanes, pq.m)
	for s, book := range pq.books {
		pq.lanes[s].Load(book, all)
	}
	return pq, nil
}

// CodeBytes reports the compressed size of one vector (one byte per
// subspace for k* ≤ 256; two otherwise).
func (pq *PQ) CodeBytes() int64 {
	per := 1
	if pq.k > 256 {
		per = 2
	}
	return int64(pq.m * per)
}

// CompressionRatio reports float32 bytes over code bytes.
func (pq *PQ) CompressionRatio() float64 {
	return float64(pq.m*pq.subDim*4) / float64(pq.CodeBytes())
}

// Encode quantizes one vector to its code (nearest codebook entry per
// subspace).
func (pq *PQ) Encode(v []float32) []uint16 {
	return pq.encode(v, pq.scratch())
}

// EncodeAll encodes a whole matrix.
func (pq *PQ) EncodeAll(vs *kernels.Matrix) [][]uint16 {
	out := make([][]uint16, vs.Rows)
	dists := pq.scratch()
	for i := range out {
		out[i] = pq.encode(vs.Row(i), dists)
	}
	return out
}

// scratch returns a buffer for one subspace's codebook distances.
func (pq *PQ) scratch() []float32 { return make([]float32, pq.lanes[0].Padded()) }

// encode is Encode with the scratch buffer supplied. The lowest index
// among equal minima wins, as in a scan of the codebook in order.
func (pq *PQ) encode(v, dists []float32) []uint16 {
	if len(v) != pq.m*pq.subDim {
		panic(fmt.Sprintf("cbir: PQ encode dim %d, want %d", len(v), pq.m*pq.subDim))
	}
	code := make([]uint16, pq.m)
	for s := range code {
		kernels.SquaredL2Lanes(v[s*pq.subDim:(s+1)*pq.subDim], &pq.lanes[s], dists)
		best, bestD := 0, float32(math.MaxFloat32)
		for c, d := range dists[:pq.k] {
			if d < bestD {
				best, bestD = c, d
			}
		}
		code[s] = uint16(best)
	}
	return code
}

// Decode reconstructs the approximation of a code.
func (pq *PQ) Decode(code []uint16) []float32 {
	out := make([]float32, 0, pq.m*pq.subDim)
	for s := 0; s < pq.m; s++ {
		out = append(out, pq.books[s].Row(int(code[s]))...)
	}
	return out
}

// DistanceTable precomputes, for one query, the squared distance from each
// query sub-vector to every codebook entry — the ADC (asymmetric distance
// computation) table. Scoring a code is then m table lookups and adds.
func (pq *PQ) DistanceTable(q []float32) *kernels.Matrix {
	t := kernels.NewMatrix(pq.m, pq.k)
	dists := pq.scratch()
	for s := 0; s < pq.m; s++ {
		kernels.SquaredL2Lanes(q[s*pq.subDim:(s+1)*pq.subDim], &pq.lanes[s], dists)
		copy(t.Row(s), dists)
	}
	return t
}

// ADC scores one code against a precomputed distance table.
func ADC(table *kernels.Matrix, code []uint16) float32 {
	var sum float32
	for s, c := range code {
		sum += table.At(s, int(c))
	}
	return sum
}

// PQIndex is an IVF index whose stored vectors are PQ codes — the
// compressed alternative to the paper's exact-rerank design.
type PQIndex struct {
	ivf   *Index
	pq    *PQ
	codes [][]uint16
}

// BuildPQIndex trains a quantizer on ivf's database and PQ-encodes every
// vector, reusing ivf's clustering for the shortlist.
func BuildPQIndex(ivf *Index, p PQParams) (*PQIndex, error) {
	pq, err := TrainPQ(ivf.Vectors, p)
	if err != nil {
		return nil, err
	}
	return &PQIndex{ivf: ivf, pq: pq, codes: pq.EncodeAll(ivf.Vectors)}, nil
}

// PQ exposes the quantizer.
func (ix *PQIndex) PQ() *PQ { return ix.pq }

// Search runs shortlist → candidates → ADC rerank over codes.
func (ix *PQIndex) Search(queries *kernels.Matrix, p SearchParams) ([][]kernels.Neighbor, error) {
	shortlists, err := ix.ivf.searchShortlists(queries, p)
	if err != nil {
		return nil, err
	}
	out := make([][]kernels.Neighbor, queries.Rows)
	for b := 0; b < queries.Rows; b++ {
		table := ix.pq.DistanceTable(queries.Row(b))
		cands := ix.ivf.Candidates(shortlists[b], p.Candidates)
		sel := kernels.NewTopK(p.K)
		for _, id := range cands {
			sel.Offer(id, ADC(table, ix.codes[id]))
		}
		out[b] = sel.Results()
	}
	return out, nil
}

// QuantizationError reports the mean squared reconstruction error over a
// sample of the database — a direct measure of how much information the
// compression destroys.
func (ix *PQIndex) QuantizationError(sample int) float64 {
	n := ix.ivf.Vectors.Rows
	if sample > n {
		sample = n
	}
	var sum float64
	step := n / sample
	if step == 0 {
		step = 1
	}
	count := 0
	for i := 0; i < n; i += step {
		rec := ix.pq.Decode(ix.codes[i])
		sum += float64(kernels.SquaredL2(rec, ix.ivf.Vectors.Row(i)))
		count++
	}
	return sum / float64(count)
}
