package cbir

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/workload"
)

func benchIndex(b *testing.B) (*Index, *kernels.Matrix) {
	b.Helper()
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 1 << 14, D: 96, Clusters: 64, Spread: 0.08, Seed: 4,
	})
	ix, err := BuildIndex(ds.Vectors, 64, 15, 5)
	if err != nil {
		b.Fatal(err)
	}
	return ix, ds.Queries(16, 0.02, 6)
}

// BenchmarkIVFSearch measures the functional shortlist→rerank pipeline
// (queries per op = 16).
func BenchmarkIVFSearch(b *testing.B) {
	ix, queries := benchIndex(b)
	p := SearchParams{Probes: 8, Candidates: 1024, K: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(queries, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortlistGeMM isolates the Eq. 1 batched distance kernel.
func BenchmarkShortlistGeMM(b *testing.B) {
	ix, queries := benchIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Shortlist(queries, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBruteForce is the exhaustive-search baseline the paper argues
// is impractical at scale (here it is merely slow).
func BenchmarkBruteForce(b *testing.B) {
	ix, queries := benchIndex(b)
	q := queries.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.BruteForceKNN(ix.Vectors, q, 10)
	}
}

// BenchmarkKMeans measures the offline clustering step.
func BenchmarkKMeans(b *testing.B) {
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 4096, D: 32, Clusters: 16, Spread: 0.08, Seed: 7,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(ds.Vectors, 16, 10, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansOverclustered measures clustering far more cells than
// the data has natural clusters, the regime of the IVF build, where the
// Yinyang filter skips most centroid groups.
func BenchmarkKMeansOverclustered(b *testing.B) {
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 8192, D: 64, Clusters: 16, Spread: 0.08, Seed: 7,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(ds.Vectors, 256, 15, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainPQSubDim4 measures PQ training with 4-dimensional
// subspaces: eight k-means runs, k = 256, where a distance costs little
// more than the bound bookkeeping around it.
func BenchmarkTrainPQSubDim4(b *testing.B) {
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 4096, D: 32, Clusters: 16, Spread: 0.08, Seed: 9,
	})
	p := PQParams{Subspaces: 8, CentroidsPerSub: 256, KMeansIters: 15, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainPQ(ds.Vectors, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPQEncode measures code generation throughput.
func BenchmarkPQEncode(b *testing.B) {
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 2048, D: 96, Clusters: 16, Spread: 0.08, Seed: 9,
	})
	pq, err := TrainPQ(ds.Vectors, DefaultPQParams())
	if err != nil {
		b.Fatal(err)
	}
	v := ds.Vectors.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pq.Encode(v)
	}
}
