package config

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/sim"
)

// ClusterConfig describes a datacenter deployment of N ReACH servers
// behind a front-end tier: the shortlist database sharded (with
// replication) across the nodes, queries scattered to one replica per
// shard over an inter-node network and gathered back at the front end.
// The per-node hardware is an ordinary SystemConfig.
type ClusterConfig struct {
	// Nodes is the number of ReACH servers.
	Nodes int `json:"nodes"`
	// Shards is the number of database shards. Every query consults every
	// shard (scatter-gather); each shard lives on Replication nodes.
	Shards int `json:"shards"`
	// Replication is the number of nodes holding a copy of each shard.
	// Ignored when ShardMap is set explicitly.
	Replication int `json:"replication"`
	// ShardMap, when non-nil, assigns each shard its replica nodes
	// explicitly: ShardMap[s] lists the node indices holding shard s.
	// When nil the map is derived: shard s's k-th replica lives on node
	// (s+k) mod Nodes.
	ShardMap [][]int `json:"shard_map,omitempty"`

	// NetGBps is the inter-node network bandwidth per node and direction
	// (one ingress and one egress link per node, built from sim.Link).
	NetGBps float64 `json:"net_gbps"`
	// NetLatencyUS is the fixed one-way network latency in microseconds. It
	// is also the conservative lookahead of the cluster's event domains:
	// each barrier round spans one network latency of simulated time.
	NetLatencyUS float64 `json:"net_latency_us"`

	// RoutePolicy selects how the front end picks a replica for each
	// (query, shard): "hash" (replica index by query hash — affinity
	// routing), "rr" (round robin), or "p2c" (power of two choices:
	// least-loaded of two sampled replicas).
	RoutePolicy string `json:"route_policy"`
	// RouteSeed seeds the router's choice sampling (p2c).
	RouteSeed int64 `json:"route_seed"`

	// Quorum is how many shard responses complete a query; 0 means all
	// shards (the default scatter-gather merge).
	Quorum int `json:"quorum"`

	// SkewExponent shapes the per-query Zipf skew of shard work: a query's
	// rerank candidates concentrate in a few clusters, so one shard's
	// share of its work is much larger than the others'. 0 is uniform.
	SkewExponent float64 `json:"skew_exponent"`

	// ContentItems is the size of the query-popularity universe: each
	// arriving query is one of this many distinct "contents", drawn Zipf by
	// SkewExponent. Hash routing keys on the content, popular contents pin
	// their load to one replica index, and the front-end result cache keys
	// on it — so the ratio of ContentItems to CacheEntries sets the
	// working-set-vs-capacity contest the cache sweep measures.
	ContentItems int `json:"content_items"`

	// CacheEntries is the capacity of the front-end result cache: an LRU
	// over content keys consulted before every scatter. 0 disables the
	// cache and the in-flight coalescing layer entirely — the query path is
	// then byte-identical to a build without the cache.
	CacheEntries int `json:"cache_entries,omitempty"`
	// CacheTTLMS is the freshness TTL of a cached result in simulated
	// milliseconds: an entry whose age has reached the TTL is expired (the
	// boundary itself is stale) and the query scatters as a miss. Must be
	// positive when CacheEntries > 0.
	CacheTTLMS float64 `json:"cache_ttl_ms,omitempty"`
	// CacheHitUS is the front-end latency in microseconds to serve a cache
	// hit (lookup plus response assembly) — the whole latency of a hit
	// query, since it never leaves the front-end tier.
	CacheHitUS float64 `json:"cache_hit_us,omitempty"`
	// CoalesceUS is the attach latency in microseconds for a coalesced
	// query: a query arriving while a scatter for the same content is in
	// flight completes this long after that scatter's merge.
	CoalesceUS float64 `json:"coalesce_us,omitempty"`

	// ParallelDomains is deprecated and selects nothing: the cluster's
	// event domains always run serially on the coordinator. It is still
	// parsed and validated (negative values are rejected) so existing
	// configs keep loading; it will be removed once no config sets it.
	ParallelDomains int `json:"parallel_domains,omitempty"`

	// Node is the per-server hardware configuration.
	Node SystemConfig `json:"node"`
}

// RoutePolicies lists the recognised routing policies.
func RoutePolicies() []string { return []string{"hash", "rr", "p2c"} }

// DefaultCluster returns a 4-node deployment: one shard per node,
// 2-way replication, a 10 GB/s / 10 µs inter-node fabric, power-of-two
// routing, and a modest per-node instance population (the cluster's
// throughput comes from scale-out, not from maxing every server).
func DefaultCluster() ClusterConfig {
	return ClusterConfig{
		Nodes:           4,
		Shards:          4,
		Replication:     2,
		NetGBps:         10.0,
		NetLatencyUS:    10.0,
		RoutePolicy:     "p2c",
		RouteSeed:       1,
		SkewExponent:    1.0,
		ContentItems:    64,
		CacheEntries:    0, // cache off by default; the pinned goldens predate it
		CacheTTLMS:      500,
		CacheHitUS:      50,
		CoalesceUS:      20,
		ParallelDomains: 1,
		Node:            Default().WithInstances(1, 2, 2),
	}
}

// ReplicaNodes returns shard s's replica node indices under the explicit
// map when set, or the derived (s+k) mod Nodes placement. Call Validate
// first; ReplicaNodes assumes a consistent configuration.
func (c *ClusterConfig) ReplicaNodes(s int) []int {
	if c.ShardMap != nil {
		return c.ShardMap[s]
	}
	r := c.Replication
	if r < 1 {
		r = 1
	}
	if r > c.Nodes {
		r = c.Nodes
	}
	out := make([]int, r)
	for k := 0; k < r; k++ {
		out[k] = (s + k) % c.Nodes
	}
	return out
}

// Upper bounds Validate enforces, so that every config it accepts can be
// built on one host: cluster.New gives each node an event domain, derives
// at most Shards × Nodes replica slots (65,536 at the bounds), and
// preallocates one Zipf weight per content item and one slot per cache
// entry. 256 nodes is eight times the largest deployment any workload or
// sweep builds.
const (
	maxNodes        = 256
	maxShards       = 256
	maxContentItems = 1 << 20
	maxCacheEntries = 1 << 20
)

// Validate checks cluster-level consistency — naming the offending entry,
// so a bad hand-written shard map points at itself — and then validates
// the per-node hardware.
func (c *ClusterConfig) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cluster: nodes must be >= 1, got %d", c.Nodes)
	}
	if c.Nodes > maxNodes {
		return fmt.Errorf("cluster: nodes must be <= %d, got %d", maxNodes, c.Nodes)
	}
	if c.Shards < 1 {
		return fmt.Errorf("cluster: shards must be >= 1, got %d", c.Shards)
	}
	if c.Shards > maxShards {
		return fmt.Errorf("cluster: shards must be <= %d, got %d", maxShards, c.Shards)
	}
	if c.ShardMap == nil {
		if c.Replication < 1 {
			return fmt.Errorf("cluster: replication must be >= 1, got %d", c.Replication)
		}
		if c.Replication > c.Nodes {
			return fmt.Errorf("cluster: replication %d exceeds node count %d", c.Replication, c.Nodes)
		}
	} else {
		if len(c.ShardMap) != c.Shards {
			return fmt.Errorf("cluster: shard_map covers %d shards, config declares %d",
				len(c.ShardMap), c.Shards)
		}
		for s, replicas := range c.ShardMap {
			if len(replicas) == 0 {
				return fmt.Errorf("cluster: shard %d has no replica nodes assigned", s)
			}
			seen := make(map[int]bool, len(replicas))
			for k, n := range replicas {
				if n < 0 || n >= c.Nodes {
					return fmt.Errorf("cluster: shard %d replica %d assigned to node %d, valid nodes are 0..%d",
						s, k, n, c.Nodes-1)
				}
				if seen[n] {
					return fmt.Errorf("cluster: shard %d lists node %d twice", s, n)
				}
				seen[n] = true
			}
		}
	}
	if c.Quorum < 0 || c.Quorum > c.Shards {
		return fmt.Errorf("cluster: quorum %d out of range 0..%d (0 means all shards)", c.Quorum, c.Shards)
	}
	if c.NetGBps <= 0 {
		return fmt.Errorf("cluster: net_gbps must be positive, got %v", c.NetGBps)
	}
	if c.NetLatencyUS <= 0 {
		// Strictly positive: the wire latency is the conservative lookahead
		// that bounds each barrier round; zero would admit no event.
		return fmt.Errorf("cluster: net_latency_us must be positive, got %v", c.NetLatencyUS)
	}
	if sim.FromSeconds(c.NetLatencyUS*1e-6) == 0 {
		return fmt.Errorf("cluster: net_latency_us %v rounds to 0 ps of simulated time", c.NetLatencyUS)
	}
	if c.ParallelDomains < 0 {
		return fmt.Errorf("cluster: parallel_domains must be non-negative, got %d", c.ParallelDomains)
	}
	switch c.RoutePolicy {
	case "hash", "rr", "p2c":
	default:
		return fmt.Errorf("cluster: unknown route_policy %q (valid: hash, rr, p2c)", c.RoutePolicy)
	}
	if c.SkewExponent < 0 {
		return fmt.Errorf("cluster: skew_exponent must be non-negative, got %v", c.SkewExponent)
	}
	if c.ContentItems < 1 {
		return fmt.Errorf("cluster: content_items must be >= 1, got %d", c.ContentItems)
	}
	if c.ContentItems > maxContentItems {
		return fmt.Errorf("cluster: content_items must be <= %d, got %d", maxContentItems, c.ContentItems)
	}
	if c.CacheEntries < 0 {
		return fmt.Errorf("cluster: cache_entries must be non-negative, got %d", c.CacheEntries)
	}
	if c.CacheEntries > maxCacheEntries {
		return fmt.Errorf("cluster: cache_entries must be <= %d, got %d", maxCacheEntries, c.CacheEntries)
	}
	if c.CacheEntries > 0 && c.CacheTTLMS <= 0 {
		return fmt.Errorf("cluster: cache_ttl_ms must be positive when the cache is enabled, got %v", c.CacheTTLMS)
	}
	if c.CacheEntries > 0 && sim.FromSeconds(c.CacheTTLMS*1e-3) == 0 {
		return fmt.Errorf("cluster: cache_ttl_ms %v rounds to 0 ps of simulated time", c.CacheTTLMS)
	}
	if c.CacheHitUS < 0 {
		return fmt.Errorf("cluster: cache_hit_us must be non-negative, got %v", c.CacheHitUS)
	}
	if c.CoalesceUS < 0 {
		return fmt.Errorf("cluster: coalesce_us must be non-negative, got %v", c.CoalesceUS)
	}
	if err := c.Node.Validate(); err != nil {
		return fmt.Errorf("cluster: node config: %w", err)
	}
	// Every query runs feature extraction on chip and each shard's
	// shortlist and rerank near memory and near storage, on every node.
	switch in := c.Node.Instances; {
	case in.OnChip < 1:
		return fmt.Errorf("cluster: node.instances.on_chip must be >= 1, got %d", in.OnChip)
	case in.NearMemory < 1:
		return fmt.Errorf("cluster: node.instances.near_memory must be >= 1, got %d", in.NearMemory)
	case in.NearStorage < 1:
		return fmt.Errorf("cluster: node.instances.near_storage must be >= 1, got %d", in.NearStorage)
	}
	return nil
}

// LoadCluster reads a ClusterConfig from a JSON file.
func LoadCluster(path string) (ClusterConfig, error) {
	var c ClusterConfig
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("config: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("config: %s: %w", path, err)
	}
	return c, nil
}

// SaveCluster writes the configuration as indented JSON.
func (c ClusterConfig) SaveCluster(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
