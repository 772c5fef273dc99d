package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// defaultClusterJSON is DefaultCluster() as SaveCluster writes it.
const defaultClusterJSON = `{
  "nodes": 4,
  "shards": 4,
  "replication": 2,
  "net_gbps": 10,
  "net_latency_us": 10,
  "route_policy": "p2c",
  "route_seed": 1,
  "quorum": 0,
  "skew_exponent": 1,
  "content_items": 64,
  "cache_ttl_ms": 500,
  "cache_hit_us": 50,
  "coalesce_us": 20,
  "parallel_domains": 1,
  "node": {
    "cpu": {"freq_mhz": 2000, "issue_width": 8, "l1_bytes": 32768, "shared_l2_bytes": 2097152, "l2_assoc": 16, "l2_line_bytes": 64},
    "memory": {"controllers": 2, "read_queue_depth": 64, "write_queue_depth": 64, "host_dimms": 4, "near_mem_dimms": 4,
      "dimm_bytes": 17179869184, "channel_gbps": 19.2, "stream_efficiency": 0.82, "random_efficiency": 0.35,
      "near_mem_gbps": 18, "aimbus_gbps": 12.8},
    "storage": {"ssds": 4, "host_pcie_gbps": 12, "host_pcie_raw_gbps": 16, "device_gbps": 12, "flash_channels": 16,
      "page_bytes": 4096, "read_latency_us": 80, "random_iops": 800000, "gather_grain_bytes": 65536,
      "host_gather_eff": 0.75, "ns_buffer_bytes": 1073741824},
    "on_chip": {"noc_gbps": 100, "cache_pollution_factor": 0.7, "tlb_miss_latency_ns": 120, "tlb_miss_rate": 0.001},
    "gam": {"command_latency_ns": 500, "status_slack_fraction": 0.1, "cross_job_pipelining": true},
    "instances": {"on_chip": 1, "near_memory": 2, "near_storage": 2}
  }
}`

// wideClusterJSON is a 32-node, 32-shard deployment shaped like the
// benchmark's steady-load cluster, with an explicit shard map.
const wideClusterJSON = `{
  "nodes": 32, "shards": 32, "replication": 2, "net_gbps": 10, "net_latency_us": 10,
  "route_policy": "p2c", "route_seed": 1, "quorum": 0, "skew_exponent": 1, "content_items": 64,
  "cache_ttl_ms": 500, "cache_hit_us": 50, "coalesce_us": 20, "parallel_domains": 2,
  "shard_map": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11],[11,12],[12,13],[13,14],[14,15],[15,16],
    [16,17],[17,18],[18,19],[19,20],[20,21],[21,22],[22,23],[23,24],[24,25],[25,26],[26,27],[27,28],[28,29],[29,30],[30,31],[31,0]],
  "node": {
    "cpu": {"freq_mhz": 2000, "issue_width": 8, "l1_bytes": 32768, "shared_l2_bytes": 2097152, "l2_assoc": 16, "l2_line_bytes": 64},
    "memory": {"controllers": 2, "read_queue_depth": 64, "write_queue_depth": 64, "host_dimms": 4, "near_mem_dimms": 4,
      "dimm_bytes": 17179869184, "channel_gbps": 19.2, "stream_efficiency": 0.82, "random_efficiency": 0.35,
      "near_mem_gbps": 18, "aimbus_gbps": 12.8},
    "storage": {"ssds": 4, "host_pcie_gbps": 12, "host_pcie_raw_gbps": 16, "device_gbps": 12, "flash_channels": 16,
      "page_bytes": 4096, "read_latency_us": 80, "random_iops": 800000, "gather_grain_bytes": 65536,
      "host_gather_eff": 0.75, "ns_buffer_bytes": 1073741824},
    "on_chip": {"noc_gbps": 100, "cache_pollution_factor": 0.7, "tlb_miss_latency_ns": 120, "tlb_miss_rate": 0.001},
    "gam": {"command_latency_ns": 500, "dispatch_cycles": 24, "status_slack_fraction": 0.1, "estimate_error_fraction": 0.05,
      "cross_job_pipelining": true, "stream_depth": 2},
    "instances": {"on_chip": 1, "near_memory": 2, "near_storage": 2}
  }
}`

// fuzzMaxReplicaSlots bounds the derived replica sets FuzzLoadCluster
// builds: Validate sets no upper limit on nodes, shards or replication,
// and ReplicaNodes allocates every set it returns.
const fuzzMaxReplicaSlots = 1 << 16

// FuzzLoadCluster feeds arbitrary bytes to LoadCluster through a file and
// requires an error or a config, never a panic. A config that loads
// validates again, and every shard's ReplicaNodes are in range and
// distinct — Validate checks an explicit shard map, and the derived one
// must hold by construction.
func FuzzLoadCluster(f *testing.F) {
	var def, wide ClusterConfig
	if err := json.Unmarshal([]byte(defaultClusterJSON), &def); err != nil || !reflect.DeepEqual(def, DefaultCluster()) {
		f.Fatalf("the default seed (error %v) is not DefaultCluster()", err)
	}
	if err := json.Unmarshal([]byte(wideClusterJSON), &wide); err != nil || wide.Validate() != nil {
		f.Fatalf("the 32-node seed does not load: %v, %v", err, wide.Validate())
	}
	f.Add([]byte(defaultClusterJSON))
	f.Add([]byte(wideClusterJSON))
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "cluster.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCluster(path)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("loaded config fails Validate: %v", err)
		}
		if c.ShardMap == nil && c.Shards > fuzzMaxReplicaSlots/min(c.Replication, c.Nodes) {
			return
		}
		for s := range c.Shards {
			seen := map[int]bool{}
			for _, n := range c.ReplicaNodes(s) {
				if n < 0 || n >= c.Nodes || seen[n] {
					t.Fatalf("shard %d replicas %v: node %d out of range 0..%d or repeated", s, c.ReplicaNodes(s), n, c.Nodes-1)
				}
				seen[n] = true
			}
			if len(seen) == 0 {
				t.Fatalf("shard %d has no replica", s)
			}
		}
	})
}
