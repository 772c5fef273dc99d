package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/sim"
)

// TestClusterQueryAllocBudget pins the per-query allocation budget of the
// scatter-gather hot path, in the spirit of the sim/mem zero-alloc gates.
// Every query runs 1+Shards core.Jobs, but a warm cluster builds none: each
// node reuses its finished job graphs, and a job reports completion to its
// query through core.DoneHandler rather than a closure. Everything around
// the jobs is pooled or precomputed too: query objects and their per-shard
// timing slices recycle through the cluster's free list, interval labels
// are built once at construction, and routing uses precomputed candidate
// slices. Nor does anything around a job allocate per task: resources keep
// no per-operation samples, job validation and the barrier drain allocate
// nothing, energy cells are indexed arrays and the GAM's queues and
// instance claims are tables indexed by level. The budget fails loudly if
// per-query garbage creeps back in (the 18-cell sweep benchmark ran ~900
// allocations/query before pooling and the cached accelerator views, ~160
// after).
func TestClusterQueryAllocBudget(t *testing.T) {
	cl, err := New(config.DefaultCluster(), testModel(), qtrace.Options{DropTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	submitBatch := func(n int) {
		base := cl.Multi().Now()
		for i := 0; i < n; i++ {
			cl.SubmitAt(base + sim.Time(i+1)*sim.Millisecond)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
	}
	submitBatch(16) // warm query pool, calendars, mailboxes, GAM state

	const queries = 8
	perQuery := testing.AllocsPerRun(5, func() { submitBatch(queries) }) / queries
	// Measured 2.0/query on go1.24 (3.0 while the latency-only log still
	// reduced each query's intervals to an attribution), 66 while every
	// query built its job graphs. The bound leaves headroom for toolchain drift while still
	// catching any real regression (one graph built per shard job, or a
	// closure per job, costs 33 or more at the default fan-out).
	const budget = 8.0
	t.Logf("cluster query allocates %.1f objects (budget %.0f)", perQuery, budget)
	if perQuery > budget {
		t.Errorf("cluster query allocates %.1f objects, budget %.0f", perQuery, budget)
	}
}

// TestClusterCachedQueryAllocBudget holds the cache-on path to the same
// budget: the LRU is a fixed slot array, singleflight entries and waiter
// slices recycle, and a hit never builds a query object — so enabling the
// cache must not add per-query garbage.
func TestClusterCachedQueryAllocBudget(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.CacheEntries = 8
	cl, err := New(cfg, testModel(), qtrace.Options{DropTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	submitBatch := func(n int) {
		base := cl.Multi().Now()
		for i := 0; i < n; i++ {
			cl.SubmitAt(base + sim.Time(i+1)*sim.Millisecond)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
	}
	submitBatch(16) // warm query pool, cache, coalescer, GAM state

	const queries = 8
	perQuery := testing.AllocsPerRun(5, func() { submitBatch(queries) }) / queries
	// Measured 1.9/query on go1.24 (2.9 while the latency-only log still
	// built attributions), 38.9 while every scattered query built its job
	// graphs.
	const budget = 8.0
	t.Logf("cached cluster query allocates %.1f objects (budget %.0f)", perQuery, budget)
	if perQuery > budget {
		t.Errorf("cached cluster query allocates %.1f objects, budget %.0f", perQuery, budget)
	}
	if cl.CacheStats().Lookups == 0 {
		t.Error("alloc measurement never consulted the cache")
	}
}

// TestClusterLegacyDomainsFieldIgnored pins the input-compatibility
// promise of the deprecated parallel_domains field: a cluster JSON that
// still carries "parallel_domains": 2 loads and validates, and the run it
// configures is identical to parallel_domains 1 — node snapshots, latency
// quantiles, barrier rounds and event count.
func TestClusterLegacyDomainsFieldIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	legacy := config.DefaultCluster()
	legacy.ParallelDomains = 2
	if err := legacy.SaveCluster(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"parallel_domains": 2`)) {
		t.Fatalf("saved config lacks the legacy field:\n%s", raw)
	}
	loaded, err := config.LoadCluster(path)
	if err != nil {
		t.Fatalf("legacy config rejected: %v", err)
	}
	if loaded.ParallelDomains != 2 {
		t.Fatalf("parallel_domains loaded as %d, want 2", loaded.ParallelDomains)
	}
	snap := func(cfg config.ClusterConfig) string {
		c := buildAndRun(t, cfg, 12, sim.FromSeconds(5e-4))
		var b bytes.Buffer
		for _, n := range c.Nodes() {
			if err := n.WriteSnapshot(&b); err != nil {
				t.Fatal(err)
			}
		}
		lat := c.QLog().Latencies()
		fmt.Fprintf(&b, "p50 %v p99 %v rounds %d events %d\n", lat.Quantile(0.5), lat.Quantile(0.99),
			c.Multi().Rounds(), c.Multi().Executed())
		return b.String()
	}
	serial := config.DefaultCluster()
	serial.ParallelDomains = 1
	if got, want := snap(loaded), snap(serial); got != want {
		t.Fatalf("parallel_domains 2 run diverged from parallel_domains 1:\n%s\nwant:\n%s", got, want)
	}
}

// TestClusterRejectsZeroLatency: the wire latency is the conservative
// lookahead, so a zero-latency cluster network — or one so short it rounds
// to 0 ps — must be rejected at validation rather than deadlocking the
// barrier or panicking in the link constructor.
func TestClusterRejectsZeroLatency(t *testing.T) {
	for _, us := range []float64{0, 1e-7} {
		cfg := config.DefaultCluster()
		cfg.NetLatencyUS = us
		if _, err := New(cfg, testModel(), qtrace.Options{}); err == nil {
			t.Fatalf("net latency %v us accepted", us)
		} else if !strings.Contains(err.Error(), "net_latency_us") {
			t.Fatalf("net latency %v us: error %q does not name net_latency_us", us, err)
		}
	}
	cfg := config.DefaultCluster()
	cfg.ParallelDomains = -1
	if _, err := New(cfg, testModel(), qtrace.Options{}); err == nil {
		t.Fatal("negative parallel_domains accepted")
	}
}

func BenchmarkClusterQuery(b *testing.B) {
	cl, err := New(config.DefaultCluster(), testModel(), qtrace.Options{DropTimelines: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.SubmitAt(cl.Multi().Now() + sim.Millisecond)
		if err := cl.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
