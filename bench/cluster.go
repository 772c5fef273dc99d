package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// arrivals returns the due times of n open-loop Poisson arrivals at rate
// queries per simulated second, conditioned on the n arrivals spanning
// exactly n/rate seconds: n+1 exponential gaps, rescaled to that span
// (the arrival times are then n sorted uniform draws over it). Every seed
// thus offers exactly the nominal rate; an unconditioned schedule's
// realized rate varies by about 1/sqrt(n), which past the latency knee
// moves the backlog, the tail and the host time from seed to seed. The
// schedule is a pure function of seed and stream, so every rep of a run
// submits the same inputs and each rung of a ladder gets its own
// independent stream.
func arrivals(seed int64, stream int, rate float64, n int) []sim.Time {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	sums := make([]float64, n+1)
	t := 0.0
	for i := range sums {
		t += rng.ExpFloat64()
		sums[i] = t
	}
	scale := float64(n) / rate / t
	at := make([]sim.Time, n)
	for i := range at {
		at[i] = sim.FromSeconds(sums[i] * scale)
	}
	return at
}

// p99LimitMS is the simulated p99 latency limit that defines
// sustainable_qps.
const p99LimitMS = 500

// sustainableQPS returns the offered rate at which p99 crosses limit,
// interpolated linearly between the rungs that bracket it (rates
// ascending). When the first rung is already over the limit the result is
// that rung's rate, an upper bound; when no rung is, it is the last rung's
// rate, a lower bound; ok is false in both cases.
func sustainableQPS(rates, p99 []float64, limit float64) (qps float64, ok bool) {
	if p99[0] > limit {
		return rates[0], false
	}
	for i := 1; i < len(rates); i++ {
		if p99[i] > limit {
			lo, hi := p99[i-1], p99[i]
			return rates[i-1] + (limit-lo)*(rates[i]-rates[i-1])/(hi-lo), true
		}
	}
	return rates[len(rates)-1], false
}

// rungOut is one cluster run of a pass: one offered rate.
type rungOut struct {
	Rate  float64 `json:"rate"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// clusterOut is what an in-process pass reports back to the parent.
type clusterOut struct {
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	AllocMB   float64            `json:"alloc_mb"`
	Events    uint64             `json:"events"`
	Submitted int                `json:"submitted"`
	Completed int                `json:"completed"`
	Rungs     []rungOut          `json:"rungs"`
	Digest    string             `json:"digest"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// runClusterPass executes one pass of an in-process workload: for each
// rung, load the deployment, build the cluster and submit the seeded
// arrivals (set-up, timed), then run it (timed). With traced set, the pass
// runs at parallel_domains 1 and also gathers the per-layer metrics and
// spans.
func runClusterPass(w *workloadDef, root string, seed int64, scale int, traced bool) (*clusterOut, error) {
	out := &clusterOut{}
	h := sha256.New()
	var tr *clusterTrace
	var spans *spanLog
	if traced {
		spans = newSpanLog(w.Name)
		tr = newClusterTrace(spans)
	}
	// Every rung is set up before the first one runs, on a small heap: a
	// run cluster with parallel domains stays reachable through its
	// workers, so later set-ups would share the process with every earlier
	// rung's heap. One untimed set-up warms the process; then setupReps
	// back-to-back
	// set-ups are timed together, so the garbage collection they cause is
	// amortized over them as in a Go benchmark loop. The last one runs.
	cls := make([]*cluster.Cluster, len(w.Rungs))
	for i, rate := range w.Rungs {
		var t0 time.Time
		for r := -1; r < setupReps; r++ {
			if r == 0 {
				t0 = time.Now()
			}
			cl, err := setupCluster(w, root, seed, i, rate, w.Queries/scale, traced, spans)
			if err != nil {
				return nil, err
			}
			cls[i] = cl
		}
		out.SetupS += time.Since(t0).Seconds() / setupReps
	}
	var ms0, ms1 runtime.MemStats
	for i, rate := range w.Rungs {
		cl := cls[i]
		cls[i] = nil
		runtime.GC() // start every rung from a collected heap
		runtime.ReadMemStats(&ms0)
		if tr != nil {
			tr.attach(cl)
		}
		s := spans.begin("cluster.Run", "sim")
		t1 := time.Now()
		err := cl.Run()
		runS := time.Since(t1).Seconds()
		spans.end(s)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		out.WallS += runS
		out.AllocMB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
		out.Events += cl.Multi().Executed()
		out.Submitted += cl.Submitted()
		out.Completed += cl.Completed()

		s = spans.begin("reduce", "bench")
		sk := cl.QLog().Sketch()
		r := rungOut{Rate: rate, P50MS: sk.Quantile(0.5).Milliseconds(), P99MS: sk.Quantile(0.99).Milliseconds()}
		out.Rungs = append(out.Rungs, r)
		digestRung(h, cl, rate)
		if tr != nil {
			tr.reduce(cl, runS, ms1.Mallocs-ms0.Mallocs)
		}
		spans.end(s)
	}
	out.Digest = fmt.Sprintf("%x", h.Sum(nil))
	if tr != nil {
		out.Layers = tr.layers()
		out.Spans = spans.spans
	}
	return out, nil
}

// setupReps is how many timed set-ups one pass makes of each cluster run
// (setup_s is their mean), and how many `reachsim -list` starts it times
// for a CLI workload (setup_s is their median).
const setupReps = 8

// setupCluster is the set-up of one rung: load the deployment, build the
// cluster (at parallel_domains 1 when traced) and submit n seeded arrivals.
func setupCluster(w *workloadDef, root string, seed int64, stream int, rate float64, n int, traced bool, spans *spanLog) (*cluster.Cluster, error) {
	s := spans.begin("config.LoadCluster", "config")
	cfg, err := config.LoadCluster(filepath.Join(root, "bench", "workloads", w.Name+".json"))
	spans.end(s)
	if err != nil {
		return nil, err
	}
	if traced {
		cfg.ParallelDomains = 1
	}
	s = spans.begin("cluster.New", "cluster")
	cl, err := cluster.New(cfg, workload.DefaultModel(), qtrace.Options{DropTimelines: !traced})
	spans.end(s)
	if err != nil {
		return nil, err
	}
	s = spans.begin("cluster.SubmitAt", "cluster")
	for _, at := range arrivals(seed, stream, rate, n) {
		cl.SubmitAt(at)
	}
	spans.end(s)
	return cl, nil
}

// digestRung folds a finished cluster run's simulated outputs into h: the
// counts, the barrier structure, the latency quantiles, the routing and
// cache accounting, and every query's arrival and completion time.
func digestRung(h io.Writer, cl *cluster.Cluster, rate float64) {
	sk := cl.QLog().Sketch()
	fmt.Fprintf(h, "rate=%g sub=%d done=%d events=%d rounds=%d p50=%d p99=%d p999=%d max=%d routed=%v cache=%+v\n",
		rate, cl.Submitted(), cl.Completed(), cl.Multi().Executed(), cl.Multi().Rounds(),
		sk.Quantile(0.5), sk.Quantile(0.99), sk.Quantile(0.999), sk.Max(),
		cl.RouterStats().Routed(), cl.CacheStats())
	var b [16]byte
	for _, q := range cl.QLog().Queries() {
		binary.LittleEndian.PutUint64(b[:8], uint64(q.Arrival))
		binary.LittleEndian.PutUint64(b[8:], uint64(q.Done))
		h.Write(b[:])
	}
}

// clusterTrace gathers the per-layer metrics of a traced in-process pass,
// summed over its rungs.
type clusterTrace struct {
	spans   *spanLog
	barrier *barrierTrace

	rungs, queries        int
	runS                  float64
	mallocs               uint64
	latency, queue, exec  float64 // simulated ms summed over completed queries
	xfer                  float64
	memWait, hostLinkWait float64 // simulated ms
	netWait               float64
	dimmUtil, flashUtil   float64 // summed means over rungs
	routedImb, peakImb    float64
	busyPct               float64
	cacheHits, lookups    uint64
	coalesced, expired    uint64
}

func newClusterTrace(spans *spanLog) *clusterTrace {
	return &clusterTrace{spans: spans, barrier: &barrierTrace{}}
}

// attach installs the barrier observer on a freshly built cluster.
func (t *clusterTrace) attach(cl *cluster.Cluster) {
	t.barrier.start(cl.Multi())
	cl.Multi().SetBarrierObserver(t.barrier)
}

// reduce folds one finished rung into the totals.
func (t *clusterTrace) reduce(cl *cluster.Cluster, runS float64, mallocs uint64) {
	t.rungs++
	t.queries += cl.Completed()
	t.runS += runS
	t.mallocs += mallocs
	for _, q := range cl.QLog().Queries() {
		if !q.Completed() {
			continue
		}
		t.latency += q.Latency().Milliseconds()
		for _, a := range q.Attribution {
			ms := a.Covered.Milliseconds()
			switch a.Phase {
			case qtrace.PhaseQueue:
				t.queue += ms
			case qtrace.PhaseExec:
				t.exec += ms
			case qtrace.PhaseXfer:
				t.xfer += ms
			}
		}
	}
	var dimm, flash utilMean
	cl.Engine().Stats().Walk(func(name string, res sim.Resource) {
		st := res.ResourceStats()
		class := resourceClass(name)
		wait := st.Wait.Milliseconds()
		switch {
		case strings.HasPrefix(class, "mem."):
			t.memWait += wait
			if strings.Contains(class, "dimm") {
				dimm.add(st)
			}
		case strings.HasPrefix(class, "ssd") && strings.HasSuffix(class, ".flash"):
			flash.add(st)
		case class == "ssd.host_link":
			t.hostLinkWait += wait
		case strings.HasPrefix(class, "cluster.net."):
			t.netWait += wait
		}
	})
	t.dimmUtil += dimm.mean()
	t.flashUtil += flash.mean()
	rt := cl.RouterStats()
	t.routedImb += rt.Imbalance()
	t.peakImb += rt.PeakImbalance()
	t.busyPct += cl.MeanBusyPct()
	cs := cl.CacheStats()
	t.cacheHits += cs.Hits
	t.lookups += cs.Lookups
	t.coalesced += cs.Coalesced
	t.expired += cs.Expired
}

// layers reduces the totals to the per-layer metrics.
func (t *clusterTrace) layers() map[string]float64 {
	b := t.barrier
	q := float64(t.queries)
	rungs := float64(t.rungs)
	return map[string]float64{
		"sim.events":                   float64(b.events),
		"sim.rounds":                   float64(b.rounds),
		"sim.events_per_round":         ratio(float64(b.events), float64(b.rounds)),
		"sim.round_parallelism":        ratio(float64(b.events), float64(b.maxSum)),
		"sim.active_domains":           ratio(float64(b.activeSum), float64(b.rounds)),
		"sim.fe_event_share":           ratio(float64(b.feEvents), float64(b.events)),
		"sim.round_host_us":            ratio(b.host.Seconds()*1e6, float64(b.rounds)),
		"core.queue_share":             ratio(t.queue, t.latency),
		"core.exec_share":              ratio(t.exec, t.latency),
		"core.xfer_share":              ratio(t.xfer, t.latency),
		"mem.dimm_util":                t.dimmUtil / rungs,
		"mem.wait_ms":                  ratio(t.memWait, q),
		"storage.flash_util":           t.flashUtil / rungs,
		"storage.host_link_wait_ms":    ratio(t.hostLinkWait, q),
		"cluster.new_ms":               t.spans.selfMS("cluster.New") / (rungs * (setupReps + 1)),
		"cluster.run_us_per_query":     ratio(t.runS*1e6, q),
		"cluster.allocs_per_query":     ratio(float64(t.mallocs), q),
		"cluster.routed_imbalance":     t.routedImb / rungs,
		"cluster.peak_queue_imbalance": t.peakImb / rungs,
		"cluster.node_busy_pct":        t.busyPct / rungs,
		"cluster.net_wait_ms":          ratio(t.netWait, q),
		"cluster.cache_hit_pct":        100 * ratio(float64(t.cacheHits), float64(t.lookups)),
		"cluster.cache_coalesced":      float64(t.coalesced),
		"cluster.cache_expired":        float64(t.expired),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resourceClass strips a registry name's "node<i>." prefix and the digits
// that number instances, so "node3.ssd2.flash" and "node0.ssd0.flash" both
// land in class "ssd.flash" and one walk aggregates the whole cluster.
func resourceClass(name string) string {
	if strings.HasPrefix(name, "node") {
		if i := strings.IndexByte(name, '.'); i > 0 {
			name = name[i+1:]
		}
	}
	if i := strings.IndexByte(name, '#'); i >= 0 {
		name = name[:i]
	}
	return strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return -1
		}
		return r
	}, name)
}

// utilMean averages utilization over the resources of a class that did
// any work.
type utilMean struct {
	sum float64
	n   int
}

func (u *utilMean) add(st sim.ResourceStats) {
	if st.Ops > 0 {
		u.sum += st.Utilization
		u.n++
	}
}

func (u *utilMean) mean() float64 { return ratio(u.sum, float64(u.n)) }

// barrierTrace is the benchmark's own sim.BarrierObserver: it records the
// host time of every barrier round and how the round's events spread over
// the domains. Observation is read-only, so the simulated outputs do not
// change under it.
type barrierTrace struct {
	last      time.Time
	prev      []uint64
	host      time.Duration
	rounds    uint64
	events    uint64
	maxSum    uint64
	activeSum uint64
	feEvents  uint64
}

// start resets the per-domain baselines for a new MultiEngine.
func (b *barrierTrace) start(m *sim.MultiEngine) {
	b.prev = make([]uint64, m.Domains())
	for i := range b.prev {
		b.prev[i] = m.Domain(i).Executed()
	}
	b.last = time.Now()
}

func (b *barrierTrace) OnBarrier(m *sim.MultiEngine, _ []int, final bool) {
	now := time.Now()
	b.host += now.Sub(b.last)
	b.last = now
	if final {
		return
	}
	b.rounds++
	var max uint64
	for i := range b.prev {
		ex := m.Domain(i).Executed()
		d := ex - b.prev[i]
		b.prev[i] = ex
		b.events += d
		if d > max {
			max = d
		}
		if d > 0 {
			b.activeSum++
		}
		if i == 0 {
			b.feEvents += d
		}
	}
	b.maxSum += max
}
