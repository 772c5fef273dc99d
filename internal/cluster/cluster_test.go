package cluster

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testModel() workload.Model {
	m := workload.DefaultModel()
	m.DatasetSize = m.DatasetSize / 100 // keep unit runs fast
	return m
}

// buildAndRun submits n queries at a fixed inter-arrival gap and runs the
// cluster to completion.
func buildAndRun(t *testing.T, cfg config.ClusterConfig, n int, gap sim.Time) *Cluster {
	t.Helper()
	c, err := New(cfg, testModel(), qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.SubmitAt(sim.Time(i) * gap)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterScatterGatherCompletes(t *testing.T) {
	c := buildAndRun(t, config.DefaultCluster(), 8, sim.FromSeconds(1e-3))
	if c.Completed() != 8 {
		t.Fatalf("completed %d of 8 queries", c.Completed())
	}
	lat := c.QLog().Latencies()
	if lat.Count() != 8 {
		t.Fatalf("log holds %d latencies, want 8", lat.Count())
	}
	if lat.Quantile(0.99) < lat.Quantile(0.50) {
		t.Fatal("p99 below p50")
	}
	// Work landed on more than one node.
	busy := 0
	for i := range c.Nodes() {
		if c.NodeBusyPct(i) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d nodes saw work in a 4-node scatter-gather", busy)
	}
}

// TestClusterDeterministic pins the tentpole's determinism bar: two
// identical runs produce byte-identical node snapshots and identical
// latency quantiles.
func TestClusterDeterministic(t *testing.T) {
	snap := func() (string, string) {
		c := buildAndRun(t, config.DefaultCluster(), 12, sim.FromSeconds(5e-4))
		var b bytes.Buffer
		for _, n := range c.Nodes() {
			if err := n.WriteSnapshot(&b); err != nil {
				t.Fatal(err)
			}
		}
		h := c.QLog().Latencies()
		return b.String(), h.Quantile(0.5).String() + "/" + h.Quantile(0.99).String()
	}
	s1, l1 := snap()
	s2, l2 := snap()
	if s1 != s2 {
		t.Fatal("identical cluster runs produced different node snapshots")
	}
	if l1 != l2 {
		t.Fatalf("identical cluster runs produced different latencies: %s vs %s", l1, l2)
	}
}

// TestClusterNodePrefixes checks the shared registry keeps node resources
// disjoint: every name belongs to a node's prefix or to the cluster tier,
// none is a duplicate renamed with "#", the on-chip accelerators' NoC
// ports sit under their node, and each node's snapshot covers only its
// own prefix.
func TestClusterNodePrefixes(t *testing.T) {
	cfg := config.DefaultCluster()
	c, err := New(cfg, testModel(), qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	c.Engine().Stats().Walk(func(name string, _ sim.Resource) {
		names[name] = true
		if strings.Contains(name, "#") {
			t.Errorf("registry name %q was renamed as a duplicate", name)
		}
		if strings.HasPrefix(name, "cluster.") {
			return
		}
		node, _, _ := strings.Cut(name, ".")
		n, err := strconv.Atoi(strings.TrimPrefix(node, "node"))
		if !strings.HasPrefix(node, "node") || err != nil || n < 0 || n >= cfg.Nodes {
			t.Errorf("registry name %q is outside every node<i>. prefix and cluster.", name)
		}
	})
	for _, want := range []string{"node0.mem.host", "node3.mem.host", "cluster.net.node0.in", "cluster.net.node3.out",
		"node0.noc.onchip0.in", "node3.noc.onchip0.out"} {
		if !names[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
	ownPort := false
	for _, e := range c.Nodes()[1].Snapshot() {
		ownPort = ownPort || e.Name == "node1.noc.onchip0.in.bytes"
		if strings.HasPrefix(e.Name, "node1.") || !strings.Contains(e.Name, ".") {
			continue
		}
		if strings.HasPrefix(e.Name, "node") || strings.HasPrefix(e.Name, "cluster.") {
			t.Fatalf("node1 snapshot leaked foreign resource %q", e.Name)
		}
	}
	if !ownPort {
		t.Error("node1 snapshot misses its on-chip accelerator's NoC port")
	}
}

// TestClusterShardMapPinning: an explicit single-replica shard map routes
// every shard job to its one assigned node.
func TestClusterShardMapPinning(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.Shards = 1
	cfg.ShardMap = [][]int{{2}}
	c := buildAndRun(t, cfg, 6, sim.FromSeconds(1e-3))
	routed := c.RouterStats().Routed()
	// 6 home picks spread anywhere, 6 shard picks all on node 2.
	if routed[2] < 6 {
		t.Fatalf("node 2 routed %d requests, want >= 6 (all shard jobs)", routed[2])
	}
	var total uint64
	for _, r := range routed {
		total += r
	}
	if total != 12 {
		t.Fatalf("total routed %d, want 12 (6 home + 6 shard)", total)
	}
}

// TestClusterQuorumMergesEarly: a 2-of-4 quorum merge completes no later
// than the all-shards merge on the same arrival sequence.
func TestClusterQuorumMergesEarly(t *testing.T) {
	mean := func(quorum int) float64 {
		cfg := config.DefaultCluster()
		cfg.Quorum = quorum
		c := buildAndRun(t, cfg, 8, sim.FromSeconds(1e-3))
		var sum float64
		for _, q := range c.QLog().Queries() {
			sum += q.Latency().Seconds()
		}
		return sum / 8
	}
	all, quorum := mean(0), mean(2)
	if quorum > all {
		t.Fatalf("2-of-4 quorum mean latency %.6fs exceeds all-shards %.6fs", quorum, all)
	}
	if quorum == all {
		t.Fatalf("quorum merge made no difference (%.6fs)", quorum)
	}
}

// TestClusterSingleNode: the degenerate 1-node, 1-shard cluster still
// works — everything co-located, no network hops.
func TestClusterSingleNode(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.Nodes, cfg.Shards, cfg.Replication = 1, 1, 1
	c := buildAndRun(t, cfg, 4, sim.FromSeconds(1e-3))
	if c.Completed() != 4 {
		t.Fatalf("completed %d of 4", c.Completed())
	}
}

func TestClusterRejectsInvalidConfig(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.RoutePolicy = "sticky"
	if _, err := New(cfg, testModel(), qtrace.Options{}); err == nil {
		t.Fatal("New accepted invalid route policy")
	}
}

// TestLatencyOnlyLogRunsIdentically: a DropTimelines log — the latency-only
// log every sweep and timed benchmark pass uses — changes nothing those
// callers read. The cached hot-content deployment and a 32-node p2c
// deployment each run a seeded Poisson stream with a full log and with a
// latency-only one, and must agree on every query's arrival and
// completion, the latency quantiles, the event and round counts, the
// router's state and the cache accounting; the latency-only log holds no
// interval and no attribution.
func TestLatencyOnlyLogRunsIdentically(t *testing.T) {
	hot := config.DefaultCluster()
	hot.SkewExponent, hot.CacheEntries, hot.CacheTTLMS = 1.2, 32, 2500
	wide := config.DefaultCluster()
	wide.Nodes, wide.Shards = 32, 32
	for _, c := range []struct {
		name    string
		cfg     config.ClusterConfig
		rate    float64
		queries int
	}{
		{"hotcache", hot, 20, 400},
		{"32-node", wide, 80, 300},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(drop bool) *Cluster {
				cl, err := New(c.cfg, workload.DefaultModel(), qtrace.Options{DropTimelines: drop})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				var at sim.Time
				for range c.queries {
					at += sim.FromSeconds(rng.ExpFloat64() / c.rate)
					cl.SubmitAt(at)
				}
				if err := cl.Run(); err != nil {
					t.Fatal(err)
				}
				return cl
			}
			full, drop := run(false), run(true)
			fq, dq := full.QLog().Queries(), drop.QLog().Queries()
			if len(fq) != c.queries || len(dq) != len(fq) {
				t.Fatalf("logs hold %d and %d queries, want %d", len(fq), len(dq), c.queries)
			}
			intervals := 0
			for i, f := range fq {
				d := dq[i]
				if !d.Completed() || d.Arrival != f.Arrival || d.Done != f.Done {
					t.Fatalf("query %d: latency-only log %v..%v, full log %v..%v", i, d.Arrival, d.Done, f.Arrival, f.Done)
				}
				if d.Intervals != nil || d.Attribution != nil {
					t.Fatalf("query %d: latency-only log kept %d intervals and %d attributions", i, len(d.Intervals), len(d.Attribution))
				}
				intervals += len(f.Intervals)
			}
			if intervals == 0 {
				t.Fatal("the full log recorded no interval")
			}
			fs, ds := full.QLog().Latencies(), drop.QLog().Latencies()
			for _, q := range []float64{0.5, 0.99, 0.999} {
				if fs.Quantile(q) != ds.Quantile(q) {
					t.Errorf("p%g: full log %v, latency-only log %v", q*100, fs.Quantile(q), ds.Quantile(q))
				}
			}
			if fs.Max() != ds.Max() {
				t.Errorf("max: full log %v, latency-only log %v", fs.Max(), ds.Max())
			}
			fm, dm := full.Multi(), drop.Multi()
			if fm.Executed() != dm.Executed() || fm.Rounds() != dm.Rounds() {
				t.Errorf("full log ran %d events in %d rounds, latency-only log %d in %d",
					fm.Executed(), fm.Rounds(), dm.Executed(), dm.Rounds())
			}
			if !reflect.DeepEqual(full.RouterStats(), drop.RouterStats()) {
				t.Errorf("router state differs: full log routed %v, latency-only log %v",
					full.RouterStats().Routed(), drop.RouterStats().Routed())
			}
			if full.CacheStats() != drop.CacheStats() {
				t.Errorf("cache accounting: full log %+v, latency-only log %+v", full.CacheStats(), drop.CacheStats())
			}
			if c.cfg.CacheEntries > 0 && full.CacheStats().Hits == 0 {
				t.Error("the cached deployment served no hit")
			}
		})
	}
}
