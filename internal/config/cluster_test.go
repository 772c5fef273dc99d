package config

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaultClusterValid(t *testing.T) {
	c := DefaultCluster()
	if err := c.Validate(); err != nil {
		t.Fatalf("default cluster config invalid: %v", err)
	}
}

func TestClusterReplicaNodesDerived(t *testing.T) {
	c := DefaultCluster()
	c.Nodes, c.Shards, c.Replication = 4, 4, 2
	got := c.ReplicaNodes(3)
	want := []int{3, 0}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ReplicaNodes(3) = %v, want %v", got, want)
	}
	// Replication clamped to node count.
	c.Replication = 9
	if n := len(c.ReplicaNodes(0)); n != 4 {
		t.Fatalf("over-replicated shard has %d replicas, want 4", n)
	}
}

// TestClusterValidateNamesBadEntry pins the error-message contract: a bad
// shard map names the offending shard/replica/node, not just "invalid".
func TestClusterValidateNamesBadEntry(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*ClusterConfig)
		wantSub string
	}{
		{"unassigned shard", func(c *ClusterConfig) {
			c.ShardMap = [][]int{{0}, {1}, {}, {3}}
		}, "shard 2 has no replica nodes"},
		{"node out of range", func(c *ClusterConfig) {
			c.ShardMap = [][]int{{0}, {1}, {2}, {7}}
		}, "shard 3 replica 0 assigned to node 7"},
		{"duplicate replica", func(c *ClusterConfig) {
			c.ShardMap = [][]int{{0}, {1}, {2, 2}, {3}}
		}, "shard 2 lists node 2 twice"},
		{"short shard map", func(c *ClusterConfig) {
			c.ShardMap = [][]int{{0}, {1}}
		}, "shard_map covers 2 shards, config declares 4"},
		{"replication exceeds nodes", func(c *ClusterConfig) {
			c.Replication = 5
		}, "replication 5 exceeds node count 4"},
		{"bad policy", func(c *ClusterConfig) {
			c.RoutePolicy = "sticky"
		}, `unknown route_policy "sticky"`},
		{"bad quorum", func(c *ClusterConfig) {
			c.Quorum = 9
		}, "quorum 9 out of range"},
		{"bad net", func(c *ClusterConfig) {
			c.NetGBps = 0
		}, "net_gbps must be positive"},
		{"sub-picosecond latency", func(c *ClusterConfig) {
			c.NetLatencyUS = 1e-7
		}, "net_latency_us 1e-07 rounds to 0 ps"},
		{"no contents", func(c *ClusterConfig) {
			c.ContentItems = 0
		}, "content_items must be >= 1"},
		{"negative cache", func(c *ClusterConfig) {
			c.CacheEntries = -1
		}, "cache_entries must be non-negative"},
		{"cache without ttl", func(c *ClusterConfig) {
			c.CacheEntries = 8
			c.CacheTTLMS = 0
		}, "cache_ttl_ms must be positive"},
		{"negative hit latency", func(c *ClusterConfig) {
			c.CacheHitUS = -1
		}, "cache_hit_us must be non-negative"},
		{"negative coalesce latency", func(c *ClusterConfig) {
			c.CoalesceUS = -1
		}, "coalesce_us must be non-negative"},
		{"sub-picosecond cache ttl", func(c *ClusterConfig) {
			c.CacheEntries = 32
			c.CacheTTLMS = 1e-10
		}, "cache_ttl_ms 1e-10 rounds to 0 ps"},
		{"node without on-chip", func(c *ClusterConfig) {
			c.Node = c.Node.WithInstances(0, 2, 2)
		}, "node.instances.on_chip must be >= 1, got 0"},
		{"node without near-memory", func(c *ClusterConfig) {
			c.Node = c.Node.WithInstances(1, 0, 2)
		}, "node.instances.near_memory must be >= 1, got 0"},
		{"node without near-storage", func(c *ClusterConfig) {
			c.Node = c.Node.WithInstances(1, 2, 0)
		}, "node.instances.near_storage must be >= 1, got 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultCluster()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the bad entry (want substring %q)", err, tc.wantSub)
			}
		})
	}
}

func TestClusterValidateNodeConfig(t *testing.T) {
	c := DefaultCluster()
	c.Node.Memory.ChannelGBps = 0
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "node config") {
		t.Fatalf("bad node config not surfaced: %v", err)
	}
}

func TestClusterSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	c := DefaultCluster()
	c.ShardMap = [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	if err := c.SaveCluster(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCluster(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != c.Nodes || got.RoutePolicy != c.RoutePolicy || len(got.ShardMap) != 4 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}
