package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/runner"
	"repro/internal/workload"
)

// smallClusterSweep is the reduced matrix the unit tests run: 4 nodes,
// the two policies under comparison, two rates, half the queries.
func smallClusterSweep(t *testing.T, opts ...Option) *ClusterSweepResult {
	t.Helper()
	res, err := ClusterSweep(workload.DefaultModel(), config.DefaultCluster(),
		[]int{4}, []string{"hash", "p2c"}, []float64{5, 20}, 32, DefaultClusterSeed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestClusterSweepShape(t *testing.T) {
	res := smallClusterSweep(t)
	if len(res.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Completed != 32 {
			t.Fatalf("%dn %s %.0f q/s completed %d of 32", p.Nodes, p.Policy, p.OfferedQPS, p.Completed)
		}
		if p.P99 < p.P50 || p.P999 < p.P99 {
			t.Fatalf("quantiles out of order at %dn %s %.0f q/s", p.Nodes, p.Policy, p.OfferedQPS)
		}
		if len(p.NodeBusyPct) != p.Nodes || p.MeanBusyPct <= 0 {
			t.Fatalf("busy stats missing at %dn %s %.0f q/s", p.Nodes, p.Policy, p.OfferedQPS)
		}
		if p.RoutedImbalance < 1 || p.PeakQueueImbalance < 1 {
			t.Fatalf("imbalance below 1 at %dn %s %.0f q/s", p.Nodes, p.Policy, p.OfferedQPS)
		}
	}
}

// TestClusterSweepP2CBeatsHashAtPeak pins the acceptance criterion: in
// the default pinned sweep, p2c's p99 is no worse than hash's at the
// highest swept rate on the largest cluster.
func TestClusterSweepP2CBeatsHashAtPeak(t *testing.T) {
	res, err := DefaultClusterSweep(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	hash, p2c, _ := res.Headline()
	if hash == nil {
		t.Fatal("pinned sweep missing hash/p2c points")
	}
	rates, counts := DefaultClusterRates(), DefaultClusterNodeCounts()
	if hash.Nodes != counts[len(counts)-1] || hash.OfferedQPS != rates[len(rates)-1] {
		t.Fatalf("headline compares %d nodes at %.0f q/s, not the largest deployment at the highest rate",
			hash.Nodes, hash.OfferedQPS)
	}
	t.Logf("%d nodes at %.0f q/s: hash p99 %.1f ms, p2c p99 %.1f ms",
		hash.Nodes, hash.OfferedQPS, hash.P99.Milliseconds(), p2c.P99.Milliseconds())
	if p2c.P99 > hash.P99 {
		t.Fatalf("p2c p99 %v exceeds hash p99 %v at the highest swept rate",
			p2c.P99, hash.P99)
	}
}

// TestClusterSweepWorkerCountInvariant: the rendered table is
// byte-identical whether the sweep runs serially or on 8 workers.
func TestClusterSweepWorkerCountInvariant(t *testing.T) {
	render := func(opts ...Option) string {
		var b strings.Builder
		if err := ClusterSweepTable(smallClusterSweep(t, opts...)).Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(WithPool(runner.NewPool(1)))
	parallel := render(WithPool(runner.NewPool(8)))
	if serial != parallel {
		t.Fatalf("cluster sweep differs by worker count:\n-- j1 --\n%s\n-- j8 --\n%s", serial, parallel)
	}
}

func TestClusterSweepTableRenders(t *testing.T) {
	var b strings.Builder
	if err := ClusterSweepTable(smallClusterSweep(t)).Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Nodes", "p2c", "hash", "p99 ms", "peak-q imbal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestClusterRunRejectsNoQueries: a run with no query has no latency to
// take a quantile of, so it is an error rather than a table.
func TestClusterRunRejectsNoQueries(t *testing.T) {
	_, _, err := ClusterRun(workload.DefaultModel(), config.DefaultCluster(), 0, 20,
		ArrivalSpec{Process: ArrivalPoisson, Seed: 1}, qtrace.Options{}, nil)
	if err == nil {
		t.Fatal("a zero-query cluster run was accepted")
	}
}

// TestStragglersReadOffLogPinned pins the straggler record stream that
// cluster.Stragglers reads off each run's query log: a sha256 over every
// field of every record and its Cause(), in query order, on five
// deployments. The digests are those of the records the front end wrote
// live at merge time before the reduction moved onto the log.
func TestStragglersReadOffLogPinned(t *testing.T) {
	runs := []struct {
		name    string
		cfg     func(*config.ClusterConfig)
		queries int
		rate    float64
		arr     ArrivalSpec
		want    string
	}{
		{"default", func(*config.ClusterConfig) {}, 32, 20, ArrivalSpec{ArrivalPoisson, 1},
			"3c2d51ebef57675d4e9d2214c4eb5cd7a1960325a47134d5dd9c9126d8445b88"},
		{"flash", func(*config.ClusterConfig) {}, 96, 8, ArrivalSpec{ArrivalFlash, 1},
			"edccfcb7d6b1b623d4ae0331bba3812f3c016c2968d67088c733331d733601db"},
		{"quorum-2-of-4", func(c *config.ClusterConfig) { c.Quorum = 2 }, 200, 30, ArrivalSpec{ArrivalPoisson, 3},
			"0442fff155a050e523cebc632d355c488c14fb77fde228e17d715c0a0561cef4"},
		{"hash-skew-1.2", func(c *config.ClusterConfig) { c.RoutePolicy, c.SkewExponent = "hash", 1.2 }, 200, 25, ArrivalSpec{ArrivalPoisson, 2},
			"15df1a906413c20ed65eb6157619d8f8aec874f97a797202b8d697b66604e01f"},
		{"8-nodes-8-shards", func(c *config.ClusterConfig) { c.Nodes, c.Shards = 8, 8 }, 100, 40, ArrivalSpec{},
			"6faa17d0930e3e666903783141f7a88968d275b18726dd1e5233e0b36256fee2"},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cfg := config.DefaultCluster()
			r.cfg(&cfg)
			cl, _, err := ClusterRun(workload.DefaultModel(), cfg, r.queries, r.rate, r.arr, qtrace.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			recs := cl.Stragglers(cl.QLog().Queries())
			h := sha256.New()
			for _, s := range recs {
				fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %s\n", s.Query, s.Content, s.Shard, s.Node,
					s.Front, s.Queue, s.Exec, s.Wire, s.Latency, s.Cause())
			}
			if got := hex.EncodeToString(h.Sum(nil)); len(recs) != r.queries || got != r.want {
				t.Errorf("%d records, sha256 %s; want %d records, sha256 %s", len(recs), got, r.queries, r.want)
			}
		})
	}
}
