package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ClusterPoint is one (node count, routing policy, offered rate) cell of
// the cluster sweep: latency quantiles over the completed queries plus
// the load-balance view — per-node busy time and how unevenly the router
// spread the traffic.
type ClusterPoint struct {
	Nodes      int
	Policy     string
	OfferedQPS float64
	Completed  int

	P50  sim.Time
	P99  sim.Time
	P999 sim.Time

	// NodeBusyPct is each node's mean accelerator utilisation in percent.
	NodeBusyPct []float64
	// MeanBusyPct averages NodeBusyPct.
	MeanBusyPct float64
	// RoutedImbalance is max/mean of per-node routed requests (1.0 even).
	RoutedImbalance float64
	// PeakQueueImbalance is max/mean of per-node peak outstanding
	// requests — the queue-depth view that separates load-aware routing
	// from hash affinity under skew.
	PeakQueueImbalance float64
}

// ClusterSweepResult is the full sweep, points in (nodes, policy, rate)
// declaration order.
type ClusterSweepResult struct {
	Points []*ClusterPoint
}

// Point finds a swept cell (nil if absent).
func (r *ClusterSweepResult) Point(nodes int, policy string, qps float64) *ClusterPoint {
	for _, p := range r.Points {
		if p.Nodes == nodes && p.Policy == policy && p.OfferedQPS == qps {
			return p
		}
	}
	return nil
}

// Headline is the sweep's headline comparison, the routing-policy gap at
// the largest swept deployment and highest rate: the hash and p2c cells
// there and hash p99 over p2c p99. It returns nils and 0 when either cell
// is missing or p2c's p99 is 0.
func (r *ClusterSweepResult) Headline() (hash, p2c *ClusterPoint, ratio float64) {
	var maxNodes int
	var maxRate float64
	for _, p := range r.Points {
		maxNodes, maxRate = max(maxNodes, p.Nodes), max(maxRate, p.OfferedQPS)
	}
	hash, p2c = r.Point(maxNodes, "hash", maxRate), r.Point(maxNodes, "p2c", maxRate)
	if hash == nil || p2c == nil || p2c.P99 <= 0 {
		return nil, nil, 0
	}
	return hash, p2c, float64(hash.P99) / float64(p2c.P99)
}

// Sweep defaults: scale-out factors, all three routing policies, rates
// climbing into the region where the per-query hot shard queues (a 4-node
// cluster's scatter-gather services a query in ~70 ms of critical path,
// so tens of q/s load the hot replicas), and enough queries per cell for
// a stable p99.
const (
	DefaultClusterQueries = 64
	DefaultClusterSeed    = 1
)

// DefaultClusterNodeCounts sweeps scale-out.
func DefaultClusterNodeCounts() []int { return []int{2, 4} }

// DefaultClusterRates approaches hot-replica saturation at 4 nodes.
func DefaultClusterRates() []float64 { return []float64{5, 10, 20} }

// sampleCells prepares WithMetrics for a sweep of n cluster cells:
// attach installs cell i's barrier-driven sampler on its cluster before it
// runs (each worker writes only its own cell's slot), and report replays
// the sampled cells through the callback in declaration order. Both are
// no-ops without WithMetrics or its callback: a cell's result carries no
// sampler for anyone else to read.
func (o runOptions) sampleCells(n int, name func(i int) string) (attach func(i int, cl *cluster.Cluster), report func()) {
	if o.metrics == nil || o.observe == nil {
		return func(int, *cluster.Cluster) {}, func() {}
	}
	samplers := make([]*metrics.MultiSampler, n)
	attach = func(i int, cl *cluster.Cluster) {
		samplers[i] = metrics.AttachMulti(cl.Multi(), *o.metrics).Sampler
	}
	report = func() {
		for i, s := range samplers {
			o.observe(name(i), s, nil)
		}
	}
	return attach, report
}

// clusterCell is one unit of sweep work.
type clusterCell struct {
	nodes  int
	policy string
	rate   float64
	stream int64
}

// ClusterSweep sweeps node count × routing policy × offered QPS over the
// deployment described by cfg (cfg.Nodes and cfg.RoutePolicy are
// overridden per cell; replication is clamped to the cell's node count).
// Arrivals are open-loop Poisson from a per-cell stream seeded by seed,
// precomputed so results are byte-identical at any worker count.
func ClusterSweep(m workload.Model, cfg config.ClusterConfig, nodeCounts []int, policies []string, rates []float64, queries int, seed int64, opts ...Option) (*ClusterSweepResult, error) {
	if queries <= 0 {
		return nil, fmt.Errorf("experiments: cluster sweep needs at least one query, got %d", queries)
	}
	var cells []clusterCell
	for _, n := range nodeCounts {
		for _, pol := range policies {
			for _, rate := range rates {
				cells = append(cells, clusterCell{n, pol, rate, int64(len(cells))})
			}
		}
	}
	o := buildOptions(opts)
	name := func(i int) string {
		c := cells[i]
		return fmt.Sprintf("clustersweep %dn %s %.0f q/s", c.nodes, c.policy, c.rate)
	}
	arr := ArrivalSpec{Process: ArrivalPoisson, Seed: seed}
	attach, report := o.sampleCells(len(cells), name)
	points, err := mapRuns(o, cells, func(cell clusterCell) (*ClusterPoint, error) {
		ccfg := cfg.WithNodes(cell.nodes)
		ccfg.RoutePolicy = cell.policy
		cl, lat, err := runCell(m, ccfg, qtrace.Options{DropTimelines: true}, arr, cell.rate, queries, cell.stream,
			func(cl *cluster.Cluster) { attach(int(cell.stream), cl) })
		if err != nil {
			return nil, err
		}
		p := &ClusterPoint{
			Nodes:      cell.nodes,
			Policy:     cell.policy,
			OfferedQPS: cell.rate,
			Completed:  lat.Count(),
			P50:        lat.Quantile(0.5),
			P99:        lat.Quantile(0.99),
			P999:       lat.Quantile(0.999),
		}
		for i := 0; i < cell.nodes; i++ {
			p.NodeBusyPct = append(p.NodeBusyPct, cl.NodeBusyPct(i))
			p.MeanBusyPct += p.NodeBusyPct[i]
		}
		p.MeanBusyPct /= float64(cell.nodes)
		p.RoutedImbalance = cl.RouterStats().Imbalance()
		p.PeakQueueImbalance = cl.RouterStats().PeakImbalance()
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	report()
	return &ClusterSweepResult{Points: points}, nil
}

// runCell runs one cluster cell: it builds the deployment on a query log
// configured by qopt, hands it to attach (when non-nil) before the run,
// submits queries arrivals of arr at rate from the given stream, runs it
// and returns the cluster with its completed queries' latencies.
func runCell(m workload.Model, cfg config.ClusterConfig, qopt qtrace.Options, arr ArrivalSpec, rate float64, queries int, stream int64, attach func(*cluster.Cluster)) (*cluster.Cluster, *sim.Histogram, error) {
	cl, err := cluster.New(cfg, m, qopt)
	if err != nil {
		return nil, nil, err
	}
	if attach != nil {
		attach(cl)
	}
	at := arr.schedule(rate, queries, stream)
	for q := 0; q < queries; q++ {
		cl.SubmitAt(at(q))
	}
	if err := cl.Run(); err != nil {
		return nil, nil, err
	}
	return cl, cl.QLog().Latencies(), nil
}

// ClusterRun executes one cluster deployment under the given seeded
// arrival process and reduces it to a summary table — the CLI's -cluster
// path and the CI cluster smoke. observe, when non-nil, receives the
// assembled cluster before the simulation starts, so the CLI's sinks (the
// metrics sampler, GAM span logs, the flight recorder) can attach to it
// and its MultiEngine.
// Deterministic for fixed inputs: the table is byte-identical run to run,
// which is what the smoke golden diffs.
func ClusterRun(m workload.Model, cfg config.ClusterConfig, queries int, rate float64, arr ArrivalSpec, qopt qtrace.Options, observe func(*cluster.Cluster)) (*cluster.Cluster, *report.Table, error) {
	if queries <= 0 {
		return nil, nil, fmt.Errorf("experiments: cluster run needs at least one query, got %d", queries)
	}
	cl, lat, err := runCell(m, cfg, qopt, arr, rate, queries, 0, observe)
	if err != nil {
		return nil, nil, err
	}
	t := &report.Table{
		Title: fmt.Sprintf("Cluster scatter-gather — %d nodes, %d shards (x%d), %s routing, %.0f q/s",
			cfg.Nodes, cfg.Shards, cfg.Replication, cfg.RoutePolicy, rate),
		Columns: []string{"Metric", "Value"},
	}
	t.AddRow("queries completed", fmt.Sprintf("%d / %d", cl.Completed(), cl.Submitted()))
	t.AddRow("p50 ms", report.F(lat.Quantile(0.5).Milliseconds(), 2))
	t.AddRow("p99 ms", report.F(lat.Quantile(0.99).Milliseconds(), 2))
	t.AddRow("p999 ms", report.F(lat.Quantile(0.999).Milliseconds(), 2))
	t.AddRow("mean node busy %", report.F(cl.MeanBusyPct(), 1))
	for i := range cl.Nodes() {
		t.AddRow(fmt.Sprintf("node%d busy %%", i), report.F(cl.NodeBusyPct(i), 1))
	}
	t.AddRow("routed imbalance", report.F(cl.RouterStats().Imbalance(), 2))
	t.AddRow("peak queue imbalance", report.F(cl.RouterStats().PeakImbalance(), 2))
	t.AddRow("sim events", fmt.Sprintf("%d", cl.Multi().Executed()))
	t.AddRow("sync rounds", fmt.Sprintf("%d", cl.Multi().Rounds()))
	if cl.CacheEnabled() {
		// Cache rows only when the cache is on, so the cache-off table —
		// and the pinned smoke golden diffing it — is untouched.
		cs := cl.CacheStats()
		t.AddRow("cache hits / lookups", fmt.Sprintf("%d / %d", cs.Hits, cs.Lookups))
		t.AddRow("cache hit rate %", report.F(100*cs.HitRate, 1))
		t.AddRow("cache coalesced", fmt.Sprintf("%d", cs.Coalesced))
		t.AddRow("cache expired", fmt.Sprintf("%d", cs.Expired))
		t.AddRow("cache evictions", fmt.Sprintf("%d", cs.Evictions))
		t.AddRow("cache mean serve age ms", report.F(cs.MeanServeAge.Milliseconds(), 2))
		t.AddRow("peak in-flight contents", fmt.Sprintf("%d", cl.PeakPending()))
	}
	return cl, t, nil
}

// DefaultClusterSweep runs the standard sweep over the default deployment.
func DefaultClusterSweep(m workload.Model, opts ...Option) (*ClusterSweepResult, error) {
	return ClusterSweep(m, config.DefaultCluster(),
		DefaultClusterNodeCounts(), config.RoutePolicies(), DefaultClusterRates(),
		DefaultClusterQueries, DefaultClusterSeed, opts...)
}

// ClusterSweepTable renders the sweep: scale-out on the left, per-policy
// tail latency and balance on the right.
func ClusterSweepTable(res *ClusterSweepResult) *report.Table {
	t := &report.Table{
		Title: "Cluster scale-out — sharded scatter-gather CBIR (Poisson open loop)",
		Columns: []string{"Nodes", "Policy", "Offered q/s",
			"p50 ms", "p99 ms", "p999 ms", "busy %", "routed imbal", "peak-q imbal"},
	}
	for _, p := range res.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.Nodes),
			p.Policy,
			report.F(p.OfferedQPS, 0),
			report.F(p.P50.Milliseconds(), 1),
			report.F(p.P99.Milliseconds(), 1),
			report.F(p.P999.Milliseconds(), 1),
			report.F(p.MeanBusyPct, 1),
			report.F(p.RoutedImbalance, 2),
			report.F(p.PeakQueueImbalance, 2),
		)
	}
	if hash, p2c, ratio := res.Headline(); hash != nil {
		t.AddNote("at %d nodes, %.0f q/s: hash p99 %.1f ms vs p2c p99 %.1f ms (%.2fx)",
			hash.Nodes, hash.OfferedQPS, hash.P99.Milliseconds(), p2c.P99.Milliseconds(), ratio)
	}
	return t
}
