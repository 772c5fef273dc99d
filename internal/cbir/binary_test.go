package cbir

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernels"
	"repro/internal/workload"
)

func TestNewBinaryEncoderValidation(t *testing.T) {
	if _, err := NewBinaryEncoder(63, 16, 1); err == nil {
		t.Error("non-multiple-of-64 bits accepted")
	}
	if _, err := NewBinaryEncoder(0, 16, 1); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := NewBinaryEncoder(64, 0, 1); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestBinaryCompressionRatio(t *testing.T) {
	e, err := NewBinaryEncoder(64, 96, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 96 floats = 384 B → 8 B: 48×.
	if e.CodeBytes() != 8 {
		t.Errorf("code bytes = %d", e.CodeBytes())
	}
	if e.CompressionRatio() != 48 {
		t.Errorf("ratio = %v, want 48", e.CompressionRatio())
	}
}

func TestHammingProperties(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x := []uint64{a}
		y := []uint64{b}
		z := []uint64{c}
		// Identity, symmetry, triangle inequality.
		if Hamming(x, x) != 0 {
			return false
		}
		if Hamming(x, y) != Hamming(y, x) {
			return false
		}
		return Hamming(x, z) <= Hamming(x, y)+Hamming(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBinaryCodesPreserveLocality(t *testing.T) {
	// Near vectors must have smaller expected Hamming distance than far
	// ones — the property LSH relies on.
	e, err := NewBinaryEncoder(256, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var nearSum, farSum int
	const trials = 50
	for i := 0; i < trials; i++ {
		v := make([]float32, 32)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		kernels.L2Normalize(v)
		near := make([]float32, 32)
		far := make([]float32, 32)
		for j := range v {
			near[j] = v[j] + float32(rng.NormFloat64()*0.05)
			far[j] = float32(rng.NormFloat64())
		}
		kernels.L2Normalize(near)
		kernels.L2Normalize(far)
		cv := e.Encode(v)
		nearSum += Hamming(cv, e.Encode(near))
		farSum += Hamming(cv, e.Encode(far))
	}
	if nearSum >= farSum/2 {
		t.Errorf("near Hamming sum %d not well below far %d", nearSum, farSum)
	}
}

func TestBinaryIndexRecallBelowExact(t *testing.T) {
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 6000, D: 32, Clusters: 24, Spread: 0.12, Seed: 77,
	})
	queries := ds.Queries(12, 0.03, 99)
	params := SearchParams{Probes: 10, Candidates: 2560, K: 10}

	exact, err := BuildIndex(ds.Vectors, 24, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(ds.Vectors, queries, params.K)
	if err != nil {
		t.Fatal(err)
	}
	exactRecall, _ := truth.RecallAtK(exact, params)

	bin, err := BuildBinaryIndex(exact, 64, 105)
	if err != nil {
		t.Fatal(err)
	}
	binRecall, err := truth.RecallAtK(bin, params)
	if err != nil {
		t.Fatal(err)
	}
	if binRecall >= exactRecall {
		t.Errorf("binary recall %.3f not below exact %.3f", binRecall, exactRecall)
	}
	if binRecall <= 0.02 {
		t.Errorf("binary recall %.3f implausibly low; locality broken", binRecall)
	}
}
