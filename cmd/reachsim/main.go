// Command reachsim regenerates the tables and figures of the ReACH paper's
// evaluation section from the cycle-level simulator.
//
// Usage:
//
//	reachsim -exp fig13            # one experiment
//	reachsim -exp all              # everything
//	reachsim -exp all -j 8         # everything, 8 simulations in flight
//	reachsim -exp fig9 -csv        # CSV instead of aligned text
//	reachsim -exp taillatency      # Poisson open-loop tail-latency sweep
//	reachsim -exp clustersweep     # N-node scatter-gather scale-out sweep
//	reachsim -exp cachesweep       # front-end cache capacity × TTL × skew sweep
//	reachsim -cluster              # one 4-node cluster run, summary table
//	reachsim -cluster -nodes 8 -route hash
//	reachsim -cluster -cache 32    # same run with the front-end result cache on
//	reachsim -cluster -metrics m.csv -trace t.json   # cluster time series + Chrome trace
//	reachsim -cluster -slo 250     # rolling SLO windows against a 250 ms objective
//	reachsim -cluster -flight out -detect -arrival flash    # flight recorder: anomaly-triggered diagnostic bundle
//	reachsim -exp all -http :8080  # live inspector while experiments run
//	reachsim -list                 # list experiment ids
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/inspect"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var experimentIDs = []string{
	"table1", "table2", "table3", "table4",
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"ablation-gam", "ablation-mapping", "ablation-nsbuffer", "ablation-granularity",
	"motivation", "loadsweep", "skew", "reverselookup", "multitenant", "recallsweep",
}

// extraIDs are runnable and listed but excluded from `-exp all`: the tail
// sweep's Poisson runs and the cluster scale-out don't belong to the
// paper's evaluation tables, and keeping them out preserves `-exp all`
// output byte-for-byte.
var extraIDs = []string{"cachesweep", "clustersweep", "taillatency"}

// Fixed inputs of the -cluster single run, pinned so its stdout is a
// stable golden for the CI cluster smoke.
const (
	clusterRunQueries = 32
	clusterRunQPS     = 20
	clusterRunSeed    = 1
)

// flashRunQueries/flashRunQPS replace the pinned inputs under -arrival
// flash: the detectors' trailing windows need queries before, during and
// after the burst, and the baseline must sit below the cluster's service
// capacity so the middle-third 8× burst — not the baseline — is what
// drives latency past the objective (see experiments.ArrivalFlash).
const (
	flashRunQueries = 96
	flashRunQPS     = 8
)

// defaultFlightWindowMS is the -flight-window default retention horizon.
const defaultFlightWindowMS = 1000

// defaultSLOWindowMS is the -slo-window default: wide enough that the
// pinned 32-query run still fills several windows.
const defaultSLOWindowMS = 250

// validateFlags rejects combinations the selected mode would silently
// ignore — every flag on the command line must do something — and
// numeric values outside a flag's domain, which would otherwise fall back
// to the default unannounced. given maps each explicitly set flag to its
// value as the flag package renders it.
func validateFlags(given map[string]string) error {
	has := func(f string) bool { _, ok := given[f]; return ok }
	if has("cluster") {
		// -cluster runs exactly one pinned deployment: the experiment
		// selection, config and sweep-concurrency knobs have nothing to
		// apply to (observability flags -metrics/-spans/-trace/-slo all do).
		for _, f := range []string{"exp", "stats", "list", "config", "benchout", "j", "qtrace", "progress"} {
			if has(f) {
				return fmt.Errorf("-%s does nothing with -cluster; drop one of them", f)
			}
		}
	} else {
		for _, f := range []string{"nodes", "route", "cache", "cache-ttl", "slo", "slo-window",
			"flight", "flight-window", "detect", "arrival"} {
			if has(f) {
				return fmt.Errorf("-%s requires -cluster", f)
			}
		}
	}
	if has("slo-window") && !has("slo") {
		return fmt.Errorf("-slo-window requires -slo")
	}
	if has("flight-window") && !has("flight") {
		return fmt.Errorf("-flight-window requires -flight")
	}
	if has("detect") && !has("flight") {
		return fmt.Errorf("-detect requires -flight")
	}
	if has("cache-ttl") && !has("cache") {
		return fmt.Errorf("-cache-ttl requires -cache")
	}
	if has("http-linger") && !has("http") {
		return fmt.Errorf("-http-linger requires -http")
	}
	for _, f := range []string{"nodes", "pj", "cache", "cache-ttl", "slo", "metrics-interval"} {
		if v, ok := given[f]; ok {
			if x, err := flagNumber(v); err != nil || x < 0 {
				return fmt.Errorf("-%s must be non-negative, got %s", f, v)
			}
		}
	}
	for _, f := range []string{"slo-window", "flight-window"} {
		if v, ok := given[f]; ok {
			if x, err := flagNumber(v); err != nil || x <= 0 {
				return fmt.Errorf("-%s must be positive, got %s", f, v)
			}
		}
	}
	// These flags are milliseconds of simulated time: a positive value
	// below the 1 ps resolution would round to zero and then panic the
	// SLO monitor or fall back to the default window unannounced.
	for _, f := range []string{"slo", "slo-window", "flight-window"} {
		if v, ok := given[f]; ok {
			if x, _ := flagNumber(v); x > 0 && sim.FromSeconds(x/1e3) == 0 {
				return fmt.Errorf("-%s %s ms rounds to 0 ps of simulated time", f, v)
			}
		}
	}
	return nil
}

// flagNumber reads a numeric flag value as the flag package renders it:
// a plain number, or a duration such as -metrics-interval's.
func flagNumber(v string) (float64, error) {
	if x, err := strconv.ParseFloat(v, 64); err == nil {
		return x, nil
	}
	d, err := time.ParseDuration(v)
	return float64(d), err
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (see -list)")
		csvOut    = flag.Bool("csv", false, "emit CSV instead of aligned text")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		cfgPath   = flag.String("config", "", "optional system config JSON (defaults to Table II)")
		tracePath = flag.String("trace", "", "write a Chrome trace of a ReACH pipeline run to this file")
		stats     = flag.Bool("stats", false, "run a ReACH pipeline and dump all component statistics")
		jobs      = flag.Int("j", 0, "max simulations in flight across all experiments (0 = GOMAXPROCS)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
		benchOut  = flag.String("benchout", "", "write a JSON wall-clock summary of the experiments to this file")
		metricsF  = flag.String("metrics", "", "sample every run's resources and write the time series here (CSV, or JSON Lines when the path ends in .jsonl); also prints per-run bottleneck-attribution tables")
		metricsIv = flag.Duration("metrics-interval", 0, "simulated-time sampling period for -metrics (default 10µs)")
		spans     = flag.Bool("spans", false, "record GAM decision spans (merged into -trace timelines and .jsonl metrics dumps)")
		progress  = flag.Bool("progress", false, "print per-run progress counters to stderr as experiments execute")
		qtraceF   = flag.String("qtrace", "", "trace every query and write per-query timelines here (interval CSV plus a *_summary.csv, or a single JSON Lines file when the path ends in .jsonl)")
		httpAddr  = flag.String("http", "", "serve a live run inspector on this address (/progress JSON, expvar at /debug/vars, pprof at /debug/pprof); implies per-query tracing")
		httpWait  = flag.Duration("http-linger", 0, "with -http, keep the inspector serving this long after the experiments finish, so scripts can scrape the final counters")
		clusterF  = flag.Bool("cluster", false, "run one sharded scatter-gather cluster deployment and print its summary table")
		nodesF    = flag.Int("nodes", 0, "with -cluster, override the node count (default 4)")
		routeF    = flag.String("route", "", "with -cluster, override the routing policy: hash, rr, p2c (default p2c)")
		_         = flag.Int("pj", 0, "deprecated and ignored: cluster event domains always run serially (still parsed so existing scripts work; negative values are rejected)")
		cacheF    = flag.Int("cache", 0, "with -cluster, enable the front-end result cache with this many entries (0 = off, the default)")
		cacheTTLF = flag.Float64("cache-ttl", 0, "with -cluster -cache, override the cache TTL in milliseconds (0 = config default, 500)")
		sloF      = flag.Float64("slo", 0, "with -cluster, latency objective in milliseconds: track rolling sim-time windows of p50/p99/p999 and SLO burn, print the window table and serve it on -http (/progress, expvar)")
		sloWinF   = flag.Float64("slo-window", defaultSLOWindowMS, "with -cluster -slo, rolling window width in milliseconds")
		flightF   = flag.String("flight", "", "with -cluster, run the always-on flight recorder and write a diagnostic bundle directory under this path (triggered by -detect, else an end-of-run dump)")
		flightWin = flag.Float64("flight-window", defaultFlightWindowMS, "with -cluster -flight, retention window in simulated milliseconds")
		detectF   = flag.Bool("detect", false, "with -cluster -flight, arm the online anomaly detectors (SLO burn rate, queue divergence, cache collapse); the first trigger freezes the rings and the bundle captures the anomaly window")
		arrivalF  = flag.String("arrival", "", "with -cluster, arrival process: poisson (default) or flash (a seeded flash crowd — the middle third of a longer query sequence arrives 8x faster)")
	)
	flag.Parse()
	given := map[string]string{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = f.Value.String() })
	if err := validateFlags(given); err != nil {
		fatal(err)
	}

	mo := metrics.Options{Spans: *spans}
	if *metricsIv > 0 {
		mo.Interval = sim.Time(metricsIv.Nanoseconds()) * sim.Nanosecond
	}

	// Profiling wraps whichever mode runs below, so profiling the full
	// evaluation (`-exp all -cpuprofile cpu.pb.gz`) needs no custom build.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report retained heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *clusterF {
		co := clusterOptions{
			nodes:       *nodesF,
			route:       *routeF,
			cache:       *cacheF,
			cacheTTL:    *cacheTTLF,
			csv:         *csvOut,
			httpAddr:    *httpAddr,
			httpWait:    *httpWait,
			metricsPath: *metricsF,
			tracePath:   *tracePath,
			sloMs:       *sloF,
			sloWindowMs: *sloWinF,
			flightDir:   *flightF,
			flightWinMs: *flightWin,
			detect:      *detectF,
			arrival:     *arrivalF,
		}
		if *metricsF != "" || *spans || *metricsIv > 0 {
			co.metrics = &mo
		}
		if err := runCluster(os.Stdout, co); err != nil {
			fatal(err)
		}
		return
	}

	if *stats {
		run, err := experiments.RunPipeline(workload.DefaultModel(), experiments.ReACHMapping(), 4, 8)
		if err != nil {
			fatal(err)
		}
		if err := run.Sys.WriteSnapshot(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		t := report.ResourceTable(run.Sys.Engine().Stats())
		if err := emit(t, os.Stdout, *csvOut); err != nil {
			fatal(err)
		}
		return
	}

	if *tracePath != "" {
		var rec *metrics.Options
		if *metricsF != "" || *spans || *metricsIv > 0 {
			rec = &mo
		}
		if err := writeTrace(*tracePath, rec, *metricsF); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in chrome://tracing or Perfetto)\n", *tracePath)
		return
	}

	if *list {
		fmt.Print(listOutput())
		return
	}

	cfg := config.Default()
	if *cfgPath != "" {
		var err error
		cfg, err = config.Load(*cfgPath)
		if err != nil {
			fatal(err)
		}
	}
	m := workload.DefaultModel()

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentIDs
	}
	ra := runAllOptions{
		jobs:     *jobs,
		csv:      *csvOut,
		benchOut: *benchOut,
		progress: *progress,
	}
	if *metricsF != "" {
		ra.metricsPath = *metricsF
		ra.metrics = &mo
	}
	if *httpAddr != "" {
		insp := inspect.New()
		if err := insp.Start(*httpAddr); err != nil {
			fatal(err)
		}
		defer insp.Close()
		fmt.Fprintf(os.Stderr, "inspector listening on http://%s\n", insp.Addr())
		ra.inspector = insp
	}
	if *qtraceF != "" || ra.inspector != nil {
		ra.qtracePath = *qtraceF
		qo := &qtrace.Options{}
		if ra.inspector != nil {
			qo.Observers = []qtrace.Observer{ra.inspector}
		}
		ra.qtrace = qo
	}
	if err := runAll(os.Stdout, ids, cfg, m, ra); err != nil {
		fatal(err)
	}
	if ra.inspector != nil && *httpWait > 0 {
		fmt.Fprintf(os.Stderr, "experiments done; inspector lingering %s\n", *httpWait)
		time.Sleep(*httpWait)
	}
}

// listOutput renders the -list contract: the `-exp all` ids sorted, one
// per line, then the runnable extras grouped under a labeled section so
// scripts consuming the top block never pick up a non-default id by
// accident.
func listOutput() string {
	var b strings.Builder
	ids := append([]string(nil), experimentIDs...)
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintln(&b, id)
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "extra (runnable, excluded from -exp all):")
	extras := append([]string(nil), extraIDs...)
	sort.Strings(extras)
	for _, id := range extras {
		fmt.Fprintln(&b, id)
	}
	return b.String()
}

// clusterOptions are the -cluster path's knobs: the deployment overrides
// and the observability sinks riding the run.
type clusterOptions struct {
	nodes    int
	route    string
	cache    int
	cacheTTL float64
	csv      bool

	httpAddr string
	httpWait time.Duration

	// metrics, when non-nil, attaches the barrier-driven cluster sampler
	// (plus per-node GAM span logs when Spans is set) and enables straggler
	// tracking, printing the per-merge attribution table after the summary.
	metrics *metrics.Options
	// metricsPath receives the sampled time series (CSV, or JSON Lines
	// when the path ends in .jsonl, spans included).
	metricsPath string
	// tracePath receives a Chrome trace with one process group per node.
	tracePath string
	// sloMs > 0 tracks rolling sim-time windows of latency quantiles
	// against this objective; sloWindowMs is the window width.
	sloMs       float64
	sloWindowMs float64
	// flightDir, when set, runs the flight recorder and writes one
	// diagnostic bundle directory beneath it; flightWinMs is the retention
	// window and detect arms the online anomaly detectors.
	flightDir   string
	flightWinMs float64
	detect      bool
	// arrival selects the pinned run's arrival process: "" or "poisson"
	// for the golden-pinned open loop, "flash" for the seeded flash crowd
	// (a longer sequence whose middle third arrives 8x faster).
	arrival string
}

// runCluster is the -cluster path: one pinned scatter-gather deployment
// (default cluster config; node count, routing policy and the front-end
// result cache overridable), its summary table on w. With httpAddr set
// the run serves the live inspector, observing every query completion,
// the per-domain clocks/mailboxes, cache counters and SLO burn while the
// run executes, and the final registry.
func runCluster(w io.Writer, o clusterOptions) error {
	ccfg := config.DefaultCluster()
	if o.nodes > 0 {
		ccfg.Nodes = o.nodes
		if ccfg.ShardMap == nil && ccfg.Replication > o.nodes {
			ccfg.Replication = o.nodes
		}
	}
	if o.route != "" {
		ccfg.RoutePolicy = o.route
	}
	if o.cache > 0 {
		ccfg.CacheEntries = o.cache
	}
	if o.cacheTTL > 0 {
		ccfg.CacheTTLMS = o.cacheTTL
	}
	qo := qtrace.Options{}
	var insp *inspect.Server
	if o.httpAddr != "" {
		insp = inspect.New()
		if err := insp.Start(o.httpAddr); err != nil {
			return err
		}
		defer insp.Close()
		fmt.Fprintf(os.Stderr, "inspector listening on http://%s\n", insp.Addr())
		qo.Observers = append(qo.Observers, insp)
	}
	var slo *inspect.SLOMonitor
	if o.sloMs > 0 {
		width := o.sloWindowMs
		if width <= 0 {
			width = defaultSLOWindowMS
		}
		slo = inspect.NewSLOMonitor(sim.FromSeconds(width/1e3), sim.FromSeconds(o.sloMs/1e3))
		qo.Observers = append(qo.Observers, slo)
		if insp != nil {
			insp.ObserveSLO(slo)
		}
	}
	var fr *flight.Recorder
	if o.flightDir != "" {
		fc := flight.Config{Detect: o.detect}
		if o.flightWinMs > 0 {
			fc.Window = sim.FromSeconds(o.flightWinMs / 1e3)
		}
		// When the run tracks an SLO, the burn detector breaches against
		// the same objective the SLO monitor reports on.
		if o.sloMs > 0 {
			fc.Objective = sim.FromSeconds(o.sloMs / 1e3)
		}
		fr = flight.New(fc)
		qo.Observers = append(qo.Observers, fr)
	}
	arr := experiments.ArrivalSpec{Process: experiments.ArrivalPoisson, Seed: clusterRunSeed}
	queries, rate := clusterRunQueries, float64(clusterRunQPS)
	switch o.arrival {
	case "", "poisson":
	case "flash":
		arr.Process = experiments.ArrivalFlash
		queries, rate = flashRunQueries, flashRunQPS
	default:
		return fmt.Errorf("unknown -arrival %q (valid: poisson, flash)", o.arrival)
	}
	var rec *metrics.MultiRecorder
	observe := func(cl *cluster.Cluster) {
		var barriers []sim.BarrierObserver
		if o.metrics != nil {
			rec = metrics.AttachMulti(cl.Multi(), *o.metrics)
			barriers = append(barriers, rec.Sampler)
			if o.metrics.Spans {
				rec.Spans = cl.AttachSpans()
			}
			cl.EnableStragglers()
		}
		if fr != nil {
			fr.AttachLog(cl.QLog())
			fr.SetLoadProvider(cl.RouterStats().LoadsInto)
			if cl.CacheEnabled() {
				fr.SetCacheProvider(func() (uint64, uint64) {
					cs := cl.CacheStats()
					return cs.Lookups, cs.Hits
				})
			}
			barriers = append(barriers, fr)
			cl.EnableStragglers()
			if insp != nil {
				insp.ObserveAnomalies(func() inspect.AnomalyStatus { return anomalyStatus(fr) })
			}
		}
		// The metrics sampler notifies first, so its series match a
		// flight-off run.
		cl.Multi().SetBarrierObserver(barriers...)
		if insp == nil {
			return
		}
		insp.ObserveMulti(cl.Multi())
		if cl.CacheEnabled() {
			insp.ObserveCache(func() inspect.CacheCounters {
				cs := cl.CacheStats()
				return inspect.CacheCounters{
					Hits: cs.Hits, Misses: cs.Misses, Expired: cs.Expired,
					Coalesced: cs.Coalesced, Evictions: cs.Evictions,
					Lookups: cs.Lookups, HitRate: cs.HitRate,
				}
			})
		}
	}
	cl, t, err := experiments.ClusterRun(workload.DefaultModel(), ccfg,
		queries, rate, arr, qo, observe)
	if err != nil {
		return err
	}
	if insp != nil {
		insp.ObserveRun("cluster", cl.Engine().Stats())
	}
	if err := emit(t, w, o.csv); err != nil {
		return err
	}
	if o.metrics != nil {
		if st := cluster.StragglerTable(cl.Stragglers()); st != nil {
			if err := emit(st, w, o.csv); err != nil {
				return err
			}
		}
	}
	if slo != nil {
		if st := slo.Table(); st != nil {
			if err := emit(st, w, o.csv); err != nil {
				return err
			}
		}
	}
	if o.metricsPath != "" {
		if err := writeClusterMetrics(o.metricsPath, rec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cluster metrics written to %s\n", o.metricsPath)
	}
	if o.tracePath != "" {
		if err := writeClusterTrace(o.tracePath, ccfg.Nodes, cl, rec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in chrome://tracing or Perfetto)\n", o.tracePath)
	}
	if fr != nil {
		dir, err := writeFlightBundle(o.flightDir, fr, cl, ccfg.Nodes, rec)
		if err != nil {
			return err
		}
		if fr.Frozen() {
			v := fr.Verdict()
			fmt.Fprintf(os.Stderr, "flight: %s detected at %.3f ms; bundle written to %s\n",
				v.Detector, v.TriggerMS, dir)
		} else {
			fmt.Fprintf(os.Stderr, "flight: no anomaly detected; end-of-run bundle written to %s\n", dir)
		}
	}
	fmt.Fprintf(os.Stderr, "cluster run complete: %d queries\n", cl.Completed())
	if insp != nil && o.httpWait > 0 {
		fmt.Fprintf(os.Stderr, "inspector lingering %s\n", o.httpWait)
		time.Sleep(o.httpWait)
	}
	return nil
}

// writeClusterMetrics dumps the barrier sampler's time series — per-node
// resources, cluster links and the synthetic per-domain streams — to path
// (CSV, or JSONL with merged spans when the path ends in .jsonl).
func writeClusterMetrics(path string, rec *metrics.MultiRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") {
		return metrics.NewJSONLWriter(f).WriteMulti("cluster", rec)
	}
	cw := metrics.NewCSVWriter(f)
	if err := cw.WriteRun("cluster", rec.Sampler); err != nil {
		return err
	}
	return cw.Flush()
}

// writeClusterTrace renders the cluster run as a Chrome trace: one
// process group per node (fe/shard/net lanes, counters, GAM spans when
// recorded) plus the front-end process with its query and cache lanes.
// rec may be nil when -metrics/-spans are off — the trace then carries
// the query timelines alone.
func writeClusterTrace(path string, nodes int, cl *cluster.Cluster, rec *metrics.MultiRecorder) error {
	tl := trace.NewTimeline()
	var counters metrics.Source
	var spans []*metrics.SpanLog
	if rec != nil {
		counters = rec.Sampler
		spans = rec.Spans
	}
	tl.AddCluster(nodes, cl.QLog(), counters, spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tl.WriteJSON(f)
}

// runAllOptions are the execution/output knobs of runAll, beyond what to
// run: concurrency, output format, wall-clock summary, observability.
type runAllOptions struct {
	jobs     int
	csv      bool
	benchOut string
	progress bool
	// metrics/metricsPath, when set, sample every RunSpec-based run and
	// write the combined time series to metricsPath (CSV, or JSONL for
	// .jsonl paths), plus a bottleneck-attribution table per sampled run.
	metrics     *metrics.Options
	metricsPath string
	// qtrace, when set, traces every query of every RunSpec-based run;
	// qtracePath (optional) receives the per-query timelines as an
	// interval CSV plus a *_summary.csv, or one JSONL file. The inspector,
	// when set, rides qtrace.Options.Observers for live query counters and
	// gets each finished run's resource utilization.
	qtrace     *qtrace.Options
	qtracePath string
	inspector  *inspect.Server
}

// obsEntry is one sampled run: the experiment it belongs to, the run name,
// and its result (carrying the recorder).
type obsEntry struct {
	exp string
	run string
	res *experiments.RunResult
}

// clusterObsEntry is one sampled cluster-sweep cell: cluster experiments
// carry a barrier-driven MultiRecorder instead of a RunSpec result.
type clusterObsEntry struct {
	exp string
	run string
	rec *metrics.MultiRecorder
}

// runAll executes the experiments concurrently on a shared simulation pool
// and emits their tables in id order. The pool bounds the total number of
// in-flight simulations at -j across all experiments (every experiment's
// internal sweep draws from the same budget), so the output is identical
// for any -j: tables are collected per experiment and printed in order,
// and sampled metrics are collected per experiment in spec order.
func runAll(w io.Writer, ids []string, cfg config.SystemConfig, m workload.Model, o runAllOptions) error {
	pool := runner.NewPool(o.jobs)
	start := time.Now()
	secs := make([]float64, len(ids)) // each index written by exactly one worker
	obs := make([][]obsEntry, len(ids))
	cobs := make([][]clusterObsEntry, len(ids))
	qobs := make([][]obsEntry, len(ids))
	// The outer fan-out is unbounded: experiments only hold pool slots
	// while leaf simulations run, so len(ids) goroutines cost nothing and
	// a bounded outer layer could not deadlock the inner sweeps anyway.
	results, err := runner.Map(context.Background(), runner.Options{Workers: len(ids)}, ids,
		func(_ context.Context, i int, id string) ([]*report.Table, error) {
			opts := []experiments.Option{experiments.WithPool(pool)}
			if o.progress {
				opts = append(opts, experiments.WithProgress(func(done, total int, name string) {
					fmt.Fprintf(os.Stderr, "[%s] %d/%d %s\n", id, done, total, name)
				}))
			}
			if o.metrics != nil {
				// The observe callbacks run serially per experiment after
				// its runs complete, so obs[i]/cobs[i] need no lock.
				opts = append(opts, experiments.WithMetrics(*o.metrics,
					func(run string, res *experiments.RunResult) {
						obs[i] = append(obs[i], obsEntry{exp: id, run: run, res: res})
					}))
				opts = append(opts, experiments.WithClusterObs(*o.metrics,
					func(run string, rec *metrics.MultiRecorder, _ *cluster.Cluster) {
						cobs[i] = append(cobs[i], clusterObsEntry{exp: id, run: run, rec: rec})
					}))
			}
			if o.qtrace != nil {
				opts = append(opts, experiments.WithQTrace(*o.qtrace,
					func(run string, res *experiments.RunResult) {
						qobs[i] = append(qobs[i], obsEntry{exp: id, run: run, res: res})
						if o.inspector != nil {
							o.inspector.ObserveRun(id+"/"+run, res.Sys.Engine().Stats())
						}
					}))
			}
			t0 := time.Now()
			tables, err := run(id, cfg, m, opts...)
			secs[i] = time.Since(t0).Seconds()
			return tables, err
		})
	if err != nil {
		return err
	}
	total := time.Since(start).Seconds()
	for _, tables := range results {
		for _, t := range tables {
			if err := emit(t, w, o.csv); err != nil {
				return err
			}
		}
	}
	if o.metricsPath != "" {
		if err := writeMetrics(w, o.metricsPath, obs, cobs, o.csv); err != nil {
			return err
		}
	}
	if o.qtracePath != "" {
		if err := writeQTrace(o.qtracePath, qobs); err != nil {
			return err
		}
	}
	if o.benchOut != "" {
		if err := writeBenchOut(o.benchOut, ids, secs, total, o.jobs); err != nil {
			return err
		}
	}
	return nil
}

// writeMetrics dumps every sampled run's time series to path (CSV, or
// JSONL when the path ends in .jsonl) and emits one bottleneck-attribution
// table per run on w. Cluster-sweep cells follow their experiment's
// RunSpec entries, series only: a sweep cell has no single-engine phase
// windows to attribute. Entries are ordered (experiment id order, spec
// order), so output is identical for any -j.
func writeMetrics(w io.Writer, path string, obs [][]obsEntry, cobs [][]clusterObsEntry, csv bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	jsonl := strings.HasSuffix(path, ".jsonl")
	cw := metrics.NewCSVWriter(f)
	jw := metrics.NewJSONLWriter(f)
	sampled := 0
	for i, entries := range obs {
		for _, e := range entries {
			label := e.exp + "/" + e.run
			if jsonl {
				err = jw.WriteRun(label, e.res.Obs)
			} else {
				err = cw.WriteRun(label, e.res.Obs.Sampler)
			}
			if err != nil {
				return err
			}
			sampled++
			atts := metrics.Attribute(e.res.Obs.Sampler, e.res.PhaseWindows())
			t := report.Bottleneck("Bottleneck attribution — "+label, atts)
			if err := emit(t, w, csv); err != nil {
				return err
			}
		}
		if cobs == nil {
			continue
		}
		for _, e := range cobs[i] {
			label := e.exp + "/" + e.run
			if jsonl {
				err = jw.WriteMulti(label, e.rec)
			} else {
				err = cw.WriteRun(label, e.rec.Sampler)
			}
			if err != nil {
				return err
			}
			sampled++
		}
	}
	if !jsonl {
		if err := cw.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "metrics for %d runs written to %s\n", sampled, path)
	return nil
}

// qtraceSummaryPath derives the per-query summary CSV's path from the
// interval CSV's: "q.csv" → "q_summary.csv".
func qtraceSummaryPath(path string) string {
	ext := ".csv"
	base := path
	if i := strings.LastIndex(path, "."); i > strings.LastIndexByte(path, os.PathSeparator) {
		base, ext = path[:i], path[i:]
	}
	return base + "_summary" + ext
}

// writeQTrace dumps every traced run's per-query timelines to path: the
// phase intervals as CSV plus a *_summary.csv of per-query latencies and
// dominant attributions, or both streams tagged by type in one JSON Lines
// file when the path ends in .jsonl. Entries are ordered (experiment id
// order, spec order), so output is identical for any -j.
func writeQTrace(path string, qobs [][]obsEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var write func(label string, l *qtrace.Log) error
	where := path
	if strings.HasSuffix(path, ".jsonl") {
		jw := qtrace.NewJSONLWriter(f)
		write = jw.WriteRun
	} else {
		sumPath := qtraceSummaryPath(path)
		sf, err := os.Create(sumPath)
		if err != nil {
			return err
		}
		defer sf.Close()
		cw := qtrace.NewCSVWriter(f, sf)
		write = cw.WriteRun
		where += " and " + sumPath
	}
	traced := 0
	for _, entries := range qobs {
		for _, e := range entries {
			if err := write(e.exp+"/"+e.run, e.res.QLog); err != nil {
				return err
			}
			traced++
		}
	}
	fmt.Fprintf(os.Stderr, "per-query traces for %d runs written to %s\n", traced, where)
	return nil
}

// writeBenchOut dumps per-experiment and total wall-clock seconds as JSON —
// the before/after evidence file for performance PRs (see BENCH_pr3.json).
func writeBenchOut(path string, ids []string, secs []float64, total float64, jobs int) error {
	type expTiming struct {
		ID      string  `json:"id"`
		Seconds float64 `json:"seconds"`
	}
	out := struct {
		Jobs         int         `json:"jobs"`
		TotalSeconds float64     `json:"total_seconds"`
		Experiments  []expTiming `json:"experiments"`
	}{Jobs: jobs, TotalSeconds: total}
	for i, id := range ids {
		out.Experiments = append(out.Experiments, expTiming{ID: id, Seconds: secs[i]})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func run(id string, cfg config.SystemConfig, m workload.Model, opts ...experiments.Option) ([]*report.Table, error) {
	switch strings.ToLower(id) {
	case "table1":
		return []*report.Table{experiments.TableI(m)}, nil
	case "table2":
		return []*report.Table{experiments.TableII(cfg)}, nil
	case "table3":
		return []*report.Table{experiments.TableIII()}, nil
	case "table4":
		return []*report.Table{experiments.TableIV(energy.DefaultCosts())}, nil
	case "fig8":
		r, err := experiments.Fig8(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "fig9":
		s, err := experiments.Fig9(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{s.Table("Fig 9")}, nil
	case "fig10":
		s, err := experiments.Fig10(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{s.Table("Fig 10")}, nil
	case "fig11":
		s, err := experiments.Fig11(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{s.Table("Fig 11")}, nil
	case "fig12":
		r, err := experiments.Fig12(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "fig13":
		r, err := experiments.Fig13(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "ablation-gam":
		r, err := experiments.AblationGAM(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "ablation-mapping":
		r, err := experiments.AblationMapping(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "ablation-granularity":
		r, err := experiments.AblationGranularity(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "recallsweep":
		r, err := experiments.RecallSweep(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "multitenant":
		r, err := experiments.MultiTenant(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "reverselookup":
		r, err := experiments.ReverseLookup(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "skew":
		r, err := experiments.SkewExperiment(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "loadsweep":
		onchip, reach, err := experiments.LoadSweepBoth(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.LoadSweepTable(onchip, reach)}, nil
	case "taillatency":
		onchip, reach, err := experiments.TailLatencyBoth(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.TailLatencyTable(onchip, reach)}, nil
	case "clustersweep":
		r, err := experiments.DefaultClusterSweep(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.ClusterSweepTable(r)}, nil
	case "cachesweep":
		r, err := experiments.DefaultCacheSweep(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{experiments.CacheSweepTable(r)}, nil
	case "ablation-nsbuffer":
		r, err := experiments.AblationNSBuffer(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	case "motivation":
		r, err := experiments.Motivation(opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{r.Table()}, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
	}
}

func emit(t *report.Table, w io.Writer, csv bool) error {
	if csv {
		return t.CSV(w)
	}
	return t.Render(w)
}

// writeTrace runs an 8-batch ReACH pipeline and dumps its timeline, one
// lane per query with its phase intervals merged in. With a non-nil
// metrics option the run is sampled: counter lanes and (when enabled) GAM
// decision spans are merged into the trace, and the raw time series
// additionally lands at metricsPath when set.
func writeTrace(path string, mo *metrics.Options, metricsPath string) error {
	spec := experiments.PipelineSpec("pipeline", workload.DefaultModel(), experiments.ReACHMapping(), 4, 8)
	spec.Metrics = mo
	spec.QTrace = &qtrace.Options{}
	run, err := spec.Run()
	if err != nil {
		return err
	}
	tl := trace.NewTimeline()
	// Keep every traceable job even when one errors; surface the first
	// failure after the timeline is as complete as it can be.
	addErr := tl.AddJobs(run.Jobs)
	tl.AddResources(run.Sys.Engine().Stats(), run.Sys.Engine().Now())
	tl.AddQueries(run.QLog)
	if run.Obs != nil {
		tl.AddCounters(run.Obs.Sampler)
		if run.Obs.Spans != nil {
			tl.AddSpans(run.Obs.Spans)
		}
		if metricsPath != "" {
			if err := writeMetrics(os.Stdout, metricsPath,
				[][]obsEntry{{{exp: "trace", run: spec.Name, res: run}}}, nil, false); err != nil {
				return err
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tl.WriteJSON(f); err != nil {
		return err
	}
	if addErr != nil {
		return fmt.Errorf("trace written incomplete: %w", addErr)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reachsim:", err)
	os.Exit(1)
}
