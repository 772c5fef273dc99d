package cbir

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/workload"
)

func pqTestData(t *testing.T) *workload.Dataset {
	t.Helper()
	return workload.Synthetic(workload.SyntheticParams{
		N: 4000, D: 32, Clusters: 16, Spread: 0.08, Seed: 31,
	})
}

func TestTrainPQValidation(t *testing.T) {
	ds := pqTestData(t)
	if _, err := TrainPQ(ds.Vectors, PQParams{Subspaces: 5, CentroidsPerSub: 16, KMeansIters: 5, Seed: 1}); err == nil {
		t.Error("D=32 into 5 subspaces accepted")
	}
	if _, err := TrainPQ(ds.Vectors, PQParams{Subspaces: 4, CentroidsPerSub: 0, KMeansIters: 5, Seed: 1}); err == nil {
		t.Error("k*=0 accepted")
	}
	if _, err := TrainPQ(ds.Vectors, PQParams{Subspaces: 4, CentroidsPerSub: 16, KMeansIters: 5, Seed: 1}); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestPQCompressionRatio(t *testing.T) {
	ds := pqTestData(t)
	pq, err := TrainPQ(ds.Vectors, PQParams{Subspaces: 8, CentroidsPerSub: 64, KMeansIters: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 32 floats = 128 bytes → 8 one-byte codes: 16×.
	if pq.CodeBytes() != 8 {
		t.Errorf("code bytes = %d, want 8", pq.CodeBytes())
	}
	if r := pq.CompressionRatio(); r != 16 {
		t.Errorf("compression ratio = %v, want 16", r)
	}
}

func TestPQEncodeDecodeRoundTrip(t *testing.T) {
	ds := pqTestData(t)
	pq, err := TrainPQ(ds.Vectors, PQParams{Subspaces: 8, CentroidsPerSub: 128, KMeansIters: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruction must be much closer to the original than a random
	// other vector is.
	var recErr, crossErr float64
	for i := 0; i < 100; i++ {
		v := ds.Vectors.Row(i)
		rec := pq.Decode(pq.Encode(v))
		recErr += float64(kernels.SquaredL2(rec, v))
		crossErr += float64(kernels.SquaredL2(ds.Vectors.Row(i+1000), v))
	}
	if recErr >= crossErr/4 {
		t.Errorf("reconstruction error %.3f not well below cross error %.3f", recErr, crossErr)
	}
}

func TestADCMatchesSymmetricDistance(t *testing.T) {
	ds := pqTestData(t)
	pq, err := TrainPQ(ds.Vectors, PQParams{Subspaces: 4, CentroidsPerSub: 64, KMeansIters: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries(1, 0.02, 5).Row(0)
	table := pq.DistanceTable(q)
	for i := 0; i < 50; i++ {
		code := pq.Encode(ds.Vectors.Row(i))
		adc := ADC(table, code)
		// ADC(q, code) must equal ‖q − decode(code)‖² exactly (it is the
		// same sum, just table-ised).
		direct := kernels.SquaredL2(q, pq.Decode(code))
		diff := float64(adc - direct)
		if diff < -1e-4 || diff > 1e-4 {
			t.Fatalf("ADC %v != direct %v at %d", adc, direct, i)
		}
	}
}

func TestPQIndexRecallBelowExactRerank(t *testing.T) {
	// The paper's motivation (§IV-A): compression reduces data visited by
	// orders of magnitude but penalises recall, which is why ReACH keeps
	// full-precision vectors and accelerates the exact rerank instead.
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
	exactRecall, err := truth.RecallAtK(exact, params)
	if err != nil {
		t.Fatal(err)
	}

	compressed, err := BuildPQIndex(exact, PQParams{Subspaces: 4, CentroidsPerSub: 16, KMeansIters: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	pqRecall, err := truth.RecallAtK(compressed, params)
	if err != nil {
		t.Fatal(err)
	}

	if exactRecall < 0.85 {
		t.Errorf("exact-rerank recall = %.3f, want >= 0.85", exactRecall)
	}
	if pqRecall >= exactRecall {
		t.Errorf("PQ recall (%.3f) not below exact recall (%.3f); compression should cost accuracy",
			pqRecall, exactRecall)
	}
	if ratio := compressed.PQ().CompressionRatio(); ratio < 10 {
		t.Errorf("compression ratio = %.0f, want >= 10 (orders-of-magnitude data reduction)", ratio)
	}
	if qe := compressed.QuantizationError(500); qe <= 0 {
		t.Errorf("quantisation error = %v, want positive", qe)
	}
}

func TestPQSearchReturnsSortedK(t *testing.T) {
	ds := pqTestData(t)
	ivf, err := BuildIndex(ds.Vectors, 16, 15, 9)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildPQIndex(ivf, DefaultPQParamsFor(32))
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries(3, 0.02, 21)
	res, err := ix.Search(queries, SearchParams{Probes: 4, Candidates: 512, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for b, r := range res {
		if len(r) != 5 {
			t.Errorf("query %d: %d results", b, len(r))
		}
		for i := 1; i < len(r); i++ {
			if r[i].Dist < r[i-1].Dist {
				t.Errorf("query %d results unsorted", b)
			}
		}
	}
}

// DefaultPQParamsFor adapts the default parameters to a dimensionality
// (test helper exercising the parameter plumbing).
func DefaultPQParamsFor(d int) PQParams {
	p := DefaultPQParams()
	for d%p.Subspaces != 0 {
		p.Subspaces /= 2
	}
	p.CentroidsPerSub = 64
	return p
}
