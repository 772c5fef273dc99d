package workload

import (
	"fmt"
	"math"
	"sort"
)

// Query skew: real retrieval traffic is not uniform over clusters — some
// visual concepts are far more popular than others. This file models
// cluster popularity as a Zipf distribution and computes how a popularity
// profile maps onto per-SSD rerank load under different cluster-placement
// policies, feeding the skew experiment.

// ZipfWeights returns n popularity weights following Zipf with exponent s
// (s = 0 is uniform), normalised to sum to 1, in rank order (most popular
// first).
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		panic("workload: ZipfWeights needs n > 0")
	}
	if s < 0 {
		panic("workload: Zipf exponent must be non-negative")
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Placement selects how clusters are assigned to storage shards.
type Placement int

const (
	// PlaceContiguous assigns clusters to shards in contiguous blocks
	// (cluster id order) — the naive layout.
	PlaceContiguous Placement = iota
	// PlaceRoundRobin deals clusters to shards round-robin in popularity
	// rank order, spreading hot clusters across devices.
	PlaceRoundRobin
)

func (p Placement) String() string {
	if p == PlaceRoundRobin {
		return "round-robin"
	}
	return "contiguous"
}

// ShardLoad maps popularity weights (rank order) onto `shards` storage
// devices under the placement policy and returns each shard's share of the
// total rerank load (sums to 1).
func ShardLoad(weights []float64, shards int, p Placement) []float64 {
	if shards <= 0 {
		panic("workload: ShardLoad needs shards > 0")
	}
	load := make([]float64, shards)
	switch p {
	case PlaceRoundRobin:
		for rank, w := range weights {
			load[rank%shards] += w
		}
	default:
		// Contiguous by cluster id: popularity rank is uncorrelated with
		// id, so model the adversarial-but-common case where hot clusters
		// landed together — block assignment in rank order.
		per := (len(weights) + shards - 1) / shards
		for rank, w := range weights {
			load[min(rank/per, shards-1)] += w
		}
	}
	return load
}

// ImbalanceFactor reports max-shard load over ideal (1/shards): 1.0 is
// perfectly balanced; the rerank stage's runtime scales with this factor
// when instances are bound to devices.
func ImbalanceFactor(load []float64) float64 {
	if len(load) == 0 {
		return 0
	}
	maxL := load[0]
	var sum float64
	for _, l := range load {
		sum += l
		if l > maxL {
			maxL = l
		}
	}
	if sum == 0 {
		return 0
	}
	return maxL * float64(len(load)) / sum
}

// DescribeSkew summarises a skew profile for reports.
func DescribeSkew(n, shards int, s float64, p Placement) string {
	load := ShardLoad(ZipfWeights(n, s), shards, p)
	sorted := append([]float64(nil), load...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	return fmt.Sprintf("zipf %.1f, %s: hottest shard %.0f%%, imbalance %.2fx",
		s, p, sorted[0]*100, ImbalanceFactor(load))
}
