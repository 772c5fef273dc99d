package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildAndRunStragglers is buildAndRun with straggler tracking on.
func buildAndRunStragglers(t *testing.T, cfg config.ClusterConfig, n int, gap sim.Time) *Cluster {
	t.Helper()
	c, err := New(cfg, testModel(), qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableStragglers()
	for i := 0; i < n; i++ {
		c.SubmitAt(sim.Time(i) * gap)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStragglerRecordsCoverMerges: one record per scattered merge, and
// each record's breakdown tiles the query's end-to-end latency exactly —
// front leg + queue + exec + wire is the whole critical path.
func TestStragglerRecordsCoverMerges(t *testing.T) {
	c := buildAndRunStragglers(t, config.DefaultCluster(), 16, sim.FromSeconds(1e-3))
	recs := c.Stragglers()
	if len(recs) != c.Completed() {
		t.Fatalf("%d records for %d merges", len(recs), c.Completed())
	}
	for _, r := range recs {
		if r.Shard < 0 || r.Shard >= c.Config().Shards || r.Node < 0 || r.Node >= c.Config().Nodes {
			t.Fatalf("record names impossible leg shard%d@node%d", r.Shard, r.Node)
		}
		if sum := r.Front + r.Queue + r.Exec + r.Wire; sum != r.Latency {
			t.Fatalf("query %d: breakdown %v+%v+%v+%v = %v != latency %v",
				r.Query, r.Front, r.Queue, r.Exec, r.Wire, sum, r.Latency)
		}
		if r.Queue < 0 || r.Exec <= 0 || r.Wire <= 0 {
			t.Fatalf("query %d: non-positive components %+v", r.Query, r)
		}
	}
	tbl := StragglerTable(recs)
	if tbl == nil || len(tbl.Rows) == 0 {
		t.Fatal("empty straggler table")
	}
	if !strings.Contains(tbl.Title, "Straggler attribution") {
		t.Fatalf("headline missing: %q", tbl.Title)
	}
	if len(tbl.Notes) != 3 {
		t.Fatalf("want 3 footnotes, got %v", tbl.Notes)
	}
}

// TestStragglerOffByDefault: without EnableStragglers the run stores
// nothing — the attribution is strictly opt-in.
func TestStragglerOffByDefault(t *testing.T) {
	c := buildAndRun(t, config.DefaultCluster(), 8, sim.FromSeconds(1e-3))
	if got := c.Stragglers(); got != nil {
		t.Fatalf("untracked run recorded %d stragglers", len(got))
	}
	if StragglerTable(nil) != nil {
		t.Fatal("StragglerTable(nil) should be nil")
	}
}

// TestStragglerRecordsDeterministic: records are written at merge time in
// the front-end domain, so the full record stream is identical on every
// run of the same configuration.
func TestStragglerRecordsDeterministic(t *testing.T) {
	run := func() []StragglerRecord {
		return buildAndRunStragglers(t, config.DefaultCluster(), 24, sim.FromSeconds(5e-4)).Stragglers()
	}
	base := run()
	if len(base) != 24 {
		t.Fatalf("%d records for 24 queries", len(base))
	}
	if got := run(); !reflect.DeepEqual(got, base) {
		t.Fatal("straggler records diverge between identical runs")
	}
}

// hotShard is the shard carrying the largest work fraction for content:
// shard weights are the Zipf weights rotated by content, so the maximum
// (index 0 of the weights) lands on shard (S - content) mod S.
func hotShard(content, shards int) int {
	return (shards - content%shards) % shards
}

// TestStragglerSkewedHashTailAcceptance is the PR's acceptance pin: a
// Zipf-1.2, hash-routed run at saturating arrival rate must attribute
// its p999 tail to the hot shard, with queue wait as the dominant cause
// — hash routing keeps hammering the same replica for popular contents
// while the rotated work skew makes that shard's jobs the biggest, so
// its GAM queue is where the tail is manufactured.
func TestStragglerSkewedHashTailAcceptance(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.SkewExponent = 1.2
	cfg.RoutePolicy = "hash"
	// The paper-scale dataset (not the unit tests' hundredth): shard work
	// must outweigh per-batch feature extraction for the tail to form at
	// the shards. The 50 ms arrival gap sits between the home nodes' FE
	// service rate (no front-end pile-up) and the hot replica's shard
	// service rate (its scheduling queues grow without bound).
	m := workload.DefaultModel()
	c, err := New(cfg, m, qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableStragglers()
	const queries = 240
	gap := sim.FromSeconds(50e-3)
	for i := 0; i < queries; i++ {
		c.SubmitAt(sim.Time(i) * gap)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	recs := c.Stragglers()
	if len(recs) != queries {
		t.Fatalf("got %d records", len(recs))
	}

	// The p999 tail starts where the run's p999 does: at the ⌊0.999·240⌋ =
	// 239th smallest latency, the rank rule of sim.Histogram, not the
	// nearest-rank 240th.
	thresh := tailThreshold(recs, 0.999)
	lats := make([]sim.Time, len(recs))
	for i, r := range recs {
		lats[i] = r.Latency
	}
	slices.Sort(lats)
	if thresh != lats[238] {
		t.Fatalf("p999 threshold %v, want the 239th of 240 latencies %v", thresh, lats[238])
	}
	// Every p999-tail record must sit on its content's hot shard with
	// queue as the dominant component.
	tail := 0
	for _, r := range recs {
		if r.Latency < thresh {
			continue
		}
		tail++
		if want := hotShard(r.Content, cfg.Shards); r.Shard != want {
			t.Errorf("tail query %d (content %d): critical shard %d, want hot shard %d",
				r.Query, r.Content, r.Shard, want)
		}
		if got := r.Cause(); got != CauseQueue {
			t.Errorf("tail query %d: dominant cause %s (queue %v exec %v wire %v)",
				r.Query, got, r.Queue, r.Exec, r.Wire)
		}
	}
	if tail == 0 {
		t.Fatal("empty p999 tail")
	}
	// And the rendered report must say so in its p999 footnote.
	tbl := StragglerTable(recs)
	p999 := tbl.Notes[len(tbl.Notes)-1]
	if !strings.Contains(p999, "dominant cause queue") {
		t.Errorf("p999 footnote does not blame the queue: %q", p999)
	}
}

// TestTailThresholdIsRunQuantile: the straggler notes' p99 and p999
// thresholds are the run's own quantiles, the same query's latency, on
// reachsim -cluster's deployment: the default 4 nodes with the cache off
// and 32 Poisson arrivals at 20 q/s from seed 1.
func TestTailThresholdIsRunQuantile(t *testing.T) {
	c, err := New(config.DefaultCluster(), workload.DefaultModel(), qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableStragglers()
	rng := rand.New(rand.NewSource(1))
	at := 0.0
	for range 32 {
		at += rng.ExpFloat64() / 20
		c.SubmitAt(sim.FromSeconds(at))
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	lat := c.QLog().Latencies()
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if got, want := tailThreshold(c.Stragglers(), q), lat.Quantile(q); got != want {
			t.Errorf("q=%g: straggler threshold %v, run quantile %v", q, got, want)
		}
	}
}
