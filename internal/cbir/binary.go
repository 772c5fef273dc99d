package cbir

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/kernels"
)

// Binary codes (sign random projections / SimHash) — the second
// compression family the paper's §IV-A motivation names alongside product
// quantisation. Each vector is reduced to B sign bits of random
// projections; candidate scoring is Hamming distance over packed words.

// BinaryEncoder holds the random hyperplanes.
type BinaryEncoder struct {
	bits   int
	dim    int
	planes *kernels.Matrix // bits × dim
}

// NewBinaryEncoder creates a B-bit encoder for D-dimensional vectors.
func NewBinaryEncoder(bitsN, dim int, seed int64) (*BinaryEncoder, error) {
	if bitsN <= 0 || bitsN%64 != 0 {
		return nil, fmt.Errorf("cbir: bit count %d must be a positive multiple of 64", bitsN)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("cbir: dim must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	planes := kernels.NewMatrix(bitsN, dim)
	for i := range planes.Data {
		planes.Data[i] = float32(rng.NormFloat64())
	}
	return &BinaryEncoder{bits: bitsN, dim: dim, planes: planes}, nil
}

// Bits reports the code length.
func (e *BinaryEncoder) Bits() int { return e.bits }

// CodeBytes reports the compressed size per vector.
func (e *BinaryEncoder) CodeBytes() int64 { return int64(e.bits / 8) }

// CompressionRatio reports float32 bytes over code bytes.
func (e *BinaryEncoder) CompressionRatio() float64 {
	return float64(e.dim*4) / float64(e.CodeBytes())
}

// Encode produces the packed sign code of v.
func (e *BinaryEncoder) Encode(v []float32) []uint64 {
	if len(v) != e.dim {
		panic(fmt.Sprintf("cbir: binary encode dim %d, want %d", len(v), e.dim))
	}
	words := make([]uint64, e.bits/64)
	for b := 0; b < e.bits; b++ {
		var dot float32
		row := e.planes.Row(b)
		for j, x := range v {
			dot += row[j] * x
		}
		if dot >= 0 {
			words[b/64] |= 1 << (b % 64)
		}
	}
	return words
}

// Hamming reports the bit distance between two codes.
func Hamming(a, b []uint64) int {
	if len(a) != len(b) {
		panic("cbir: Hamming on different code lengths")
	}
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// BinaryIndex is the IVF index with binary-code rerank.
type BinaryIndex struct {
	ivf   *Index
	enc   *BinaryEncoder
	codes [][]uint64
}

// BuildBinaryIndex encodes ivf's database with a bitsN-bit encoder whose
// hyperplanes come from seed, reusing ivf's clustering for the shortlist.
func BuildBinaryIndex(ivf *Index, bitsN int, seed int64) (*BinaryIndex, error) {
	vectors := ivf.Vectors
	enc, err := NewBinaryEncoder(bitsN, vectors.Cols, seed)
	if err != nil {
		return nil, err
	}
	codes := make([][]uint64, vectors.Rows)
	for i := 0; i < vectors.Rows; i++ {
		codes[i] = enc.Encode(vectors.Row(i))
	}
	return &BinaryIndex{ivf: ivf, enc: enc, codes: codes}, nil
}

// Encoder exposes the encoder.
func (ix *BinaryIndex) Encoder() *BinaryEncoder { return ix.enc }

// Search runs shortlist → candidates → Hamming rerank.
func (ix *BinaryIndex) Search(queries *kernels.Matrix, p SearchParams) ([][]kernels.Neighbor, error) {
	shortlists, err := ix.ivf.searchShortlists(queries, p)
	if err != nil {
		return nil, err
	}
	out := make([][]kernels.Neighbor, queries.Rows)
	for b := 0; b < queries.Rows; b++ {
		qc := ix.enc.Encode(queries.Row(b))
		cands := ix.ivf.Candidates(shortlists[b], p.Candidates)
		sel := kernels.NewTopK(p.K)
		for _, id := range cands {
			sel.Offer(id, float32(Hamming(qc, ix.codes[id])))
		}
		out[b] = sel.Results()
	}
	return out, nil
}
