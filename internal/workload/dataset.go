package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/kernels"
)

// Dataset is the functional-scale database: real vectors the simulator's
// functional layer searches. Vectors are drawn from a Gaussian mixture so
// k-means clustering is meaningful and IVF shortlisting achieves
// non-trivial recall.
type Dataset struct {
	Vectors *kernels.Matrix // N × D
	// TrueCluster is the generating mixture component of each vector
	// (ground truth for clustering sanity checks, not used by retrieval).
	TrueCluster []int
	// Centers are the mixture means (GroundTruthClusters × D).
	Centers *kernels.Matrix
}

// SyntheticParams controls dataset generation.
type SyntheticParams struct {
	N        int     // database size (functional scale)
	D        int     // dimensionality
	Clusters int     // mixture components
	Spread   float64 // intra-cluster standard deviation
	Seed     int64
}

// Synthetic generates a deterministic Gaussian-mixture dataset.
func Synthetic(p SyntheticParams) *Dataset {
	if p.N <= 0 || p.D <= 0 || p.Clusters <= 0 || p.Clusters > p.N {
		panic(fmt.Sprintf("workload: invalid synthetic params %+v", p))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	centers := kernels.NewMatrix(p.Clusters, p.D)
	for i := range centers.Data {
		centers.Data[i] = float32(rng.NormFloat64())
	}
	for c := 0; c < p.Clusters; c++ {
		kernels.L2Normalize(centers.Row(c))
	}
	ds := &Dataset{
		Vectors:     kernels.NewMatrix(p.N, p.D),
		TrueCluster: make([]int, p.N),
		Centers:     centers,
	}
	for i := 0; i < p.N; i++ {
		c := rng.Intn(p.Clusters)
		ds.TrueCluster[i] = c
		row := ds.Vectors.Row(i)
		center := centers.Row(c)
		for j := range row {
			row[j] = center[j] + float32(rng.NormFloat64()*p.Spread)
		}
		kernels.L2Normalize(row)
	}
	return ds
}

// N reports the dataset cardinality.
func (d *Dataset) N() int { return d.Vectors.Rows }

// D reports the dimensionality.
func (d *Dataset) D() int { return d.Vectors.Cols }

// Queries draws a batch of query vectors: perturbed copies of random
// database points, so every query has meaningful near neighbours.
func (d *Dataset) Queries(batch int, spread float64, seed int64) *kernels.Matrix {
	if batch <= 0 {
		panic("workload: batch must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	q := kernels.NewMatrix(batch, d.D())
	for b := 0; b < batch; b++ {
		src := d.Vectors.Row(rng.Intn(d.N()))
		row := q.Row(b)
		for j := range row {
			row[j] = src[j] + float32(rng.NormFloat64()*spread)
		}
		kernels.L2Normalize(row)
	}
	return q
}

// Images generates a deterministic batch of synthetic query images for the
// functional CNN path.
func Images(batch, c, h, w int, seed int64) []*kernels.Tensor3 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*kernels.Tensor3, batch)
	for b := range out {
		img := kernels.NewTensor3(c, h, w)
		// Smooth blobs rather than white noise: gives the CNN spatial
		// structure to respond to.
		cx, cy := rng.Float64()*float64(w), rng.Float64()*float64(h)
		for ch := 0; ch < c; ch++ {
			amp := 0.5 + rng.Float64()
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					dx := (float64(x) - cx) / float64(w)
					dy := (float64(y) - cy) / float64(h)
					v := amp / (1 + 8*(dx*dx+dy*dy))
					img.Set(ch, y, x, float32(v+rng.NormFloat64()*0.02))
				}
			}
		}
		out[b] = img
	}
	return out
}
