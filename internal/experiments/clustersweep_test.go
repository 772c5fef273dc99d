package experiments

import (
	"strings"
	"testing"

	"repro/internal/config"
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
	rates := DefaultClusterRates()
	maxRate := rates[len(rates)-1]
	counts := DefaultClusterNodeCounts()
	maxNodes := counts[len(counts)-1]
	hash := res.Point(maxNodes, "hash", maxRate)
	p2c := res.Point(maxNodes, "p2c", maxRate)
	if hash == nil || p2c == nil {
		t.Fatal("pinned sweep missing hash/p2c points")
	}
	t.Logf("%d nodes at %.0f q/s: hash p99 %.1f ms, p2c p99 %.1f ms",
		maxNodes, maxRate, hash.P99.Milliseconds(), p2c.P99.Milliseconds())
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
