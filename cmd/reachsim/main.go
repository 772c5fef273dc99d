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
//	reachsim -cluster -slo 250     # tumbling SLO windows against a 250 ms objective
//	reachsim -cluster -flight out -detect -arrival flash    # flight recorder: anomaly-triggered diagnostic bundle
//	reachsim -list                 # list experiment ids
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// experiment is one -exp id: whether `-exp all` runs it, and the call that
// returns its table.
type experiment struct {
	id string
	// all is false for the extras, runnable and listed but kept out of
	// `-exp all`: the tail sweep's Poisson runs and the cluster sweeps
	// don't belong to the paper's evaluation tables, and keeping them out
	// preserves `-exp all` output byte-for-byte.
	all bool
	run runFunc
}

// runFunc runs one experiment with the execution options and returns its
// table.
type runFunc func(m workload.Model, opts []experiments.Option) (*report.Table, error)

// experimentTable is every experiment, in the order `-exp all` runs and
// prints them; -list sorts it.
var experimentTable = []experiment{
	{"table1", true, func(m workload.Model, _ []experiments.Option) (*report.Table, error) {
		return experiments.TableI(m), nil
	}},
	// Every simulation builds its system from config.Default(), so Table II
	// prints that config.
	{"table2", true, func(workload.Model, []experiments.Option) (*report.Table, error) {
		return experiments.TableII(config.Default()), nil
	}},
	{"table3", true, func(workload.Model, []experiments.Option) (*report.Table, error) {
		return experiments.TableIII(), nil
	}},
	{"table4", true, func(workload.Model, []experiments.Option) (*report.Table, error) {
		return experiments.TableIV(energy.DefaultCosts()), nil
	}},
	{"fig8", true, tabled(experiments.Fig8)},
	{"fig9", true, rendered(experiments.Fig9, stageTable("Fig 9"))},
	{"fig10", true, rendered(experiments.Fig10, stageTable("Fig 10"))},
	{"fig11", true, rendered(experiments.Fig11, stageTable("Fig 11"))},
	{"fig12", true, tabled(experiments.Fig12)},
	{"fig13", true, tabled(experiments.Fig13)},
	{"ablation-gam", true, tabled(experiments.AblationGAM)},
	{"ablation-mapping", true, tabled(experiments.AblationMapping)},
	{"ablation-nsbuffer", true, tabled(experiments.AblationNSBuffer)},
	{"ablation-granularity", true, tabled(experiments.AblationGranularity)},
	{"motivation", true, tabled(func(_ workload.Model, opts ...experiments.Option) (*experiments.MotivationResult, error) {
		return experiments.Motivation(opts...)
	})},
	{"loadsweep", true, paired(experiments.LoadSweepBoth, experiments.LoadSweepTable)},
	{"skew", true, tabled(experiments.SkewExperiment)},
	{"reverselookup", true, tabled(experiments.ReverseLookup)},
	{"multitenant", true, tabled(experiments.MultiTenant)},
	{"recallsweep", true, tabled(experiments.RecallSweep)},
	{"cachesweep", false, rendered(experiments.DefaultCacheSweep, experiments.CacheSweepTable)},
	{"clustersweep", false, rendered(experiments.DefaultClusterSweep, experiments.ClusterSweepTable)},
	{"taillatency", false, paired(experiments.TailLatencyBoth, experiments.TailLatencyTable)},
}

// rendered adapts an experiment entry point and the renderer of its
// result.
func rendered[R any](f func(workload.Model, ...experiments.Option) (R, error), table func(R) *report.Table) runFunc {
	return func(m workload.Model, opts []experiments.Option) (*report.Table, error) {
		r, err := f(m, opts...)
		if err != nil {
			return nil, err
		}
		return table(r), nil
	}
}

// tabled adapts an entry point whose result renders its own table.
func tabled[R interface{ Table() *report.Table }](f func(workload.Model, ...experiments.Option) (R, error)) runFunc {
	return rendered(f, R.Table)
}

// paired adapts an entry point that sweeps the on-chip baseline and ReACH,
// rendered side by side.
func paired[R any](f func(workload.Model, ...experiments.Option) (R, R, error), table func(onchip, reach R) *report.Table) runFunc {
	return func(m workload.Model, opts []experiments.Option) (*report.Table, error) {
		onchip, reach, err := f(m, opts...)
		if err != nil {
			return nil, err
		}
		return table(onchip, reach), nil
	}
}

// stageTable renders a single-stage sweep under its figure's title.
func stageTable(figure string) func(*experiments.StageSweep) *report.Table {
	return func(s *experiments.StageSweep) *report.Table { return s.Table(figure) }
}

// tableIDs lists the ids `-exp all` runs (all) or the extras (!all), in
// table order.
func tableIDs(all bool) []string {
	var ids []string
	for _, e := range experimentTable {
		if e.all == all {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// run looks id up in experimentTable, ignoring case, and runs it.
func run(id string, m workload.Model, opts ...experiments.Option) (*report.Table, error) {
	for _, e := range experimentTable {
		if strings.EqualFold(e.id, id) {
			return e.run(m, opts)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
}

// Fixed inputs of the -cluster single run, pinned so its stdout is a
// stable golden (testdata/cluster_smoke.golden).
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

// modeFlags select reachsim's mode: the first one set wins, and with none
// set it runs experiments, the "exp" mode.
var modeFlags = []string{"cluster", "stats", "trace", "list"}

// allModes is every mode, for the flags that act in all of them.
var allModes = []string{"exp", "cluster", "stats", "trace", "list"}

// flagModes is the flag contract: the modes each flag acts in. A flag
// missing here acts in none.
var flagModes = map[string][]string{
	"cpuprofile": allModes,
	"memprofile": allModes,
	// -pj is a deprecated no-op, accepted everywhere so existing scripts
	// still run.
	"pj":               allModes,
	"exp":              {"exp"},
	"j":                {"exp"},
	"progress":         {"exp"},
	"qtrace":           {"exp"},
	"csv":              {"exp", "cluster", "stats"},
	"metrics":          {"exp", "cluster", "trace"},
	"metrics-interval": {"exp", "cluster", "trace"},
	"spans":            {"cluster", "trace"},
	"trace":            {"trace", "cluster"},
	"stats":            {"stats"},
	"list":             {"list"},
	"cluster":          {"cluster"},
	"nodes":            {"cluster"},
	"route":            {"cluster"},
	"cache":            {"cluster"},
	"cache-ttl":        {"cluster"},
	"slo":              {"cluster"},
	"slo-window":       {"cluster"},
	"flight":           {"cluster"},
	"flight-window":    {"cluster"},
	"detect":           {"cluster"},
	"arrival":          {"cluster"},
}

// validateFlags returns the selected mode, rejecting a flag that mode
// would silently ignore — every flag on the command line must do
// something — a numeric value outside its flag's domain, which would
// otherwise fall back to the default unannounced, and a flag given
// without the flag it refines. given maps each explicitly set flag to its
// value as the flag package renders it.
func validateFlags(given map[string]string) (string, error) {
	has := func(f string) bool { _, ok := given[f]; return ok }
	mode := "exp"
	for _, f := range modeFlags {
		if has(f) {
			mode = f
			break
		}
	}
	names := make([]string, 0, len(given))
	for f := range given {
		names = append(names, f)
	}
	sort.Strings(names)
	for _, f := range names {
		modes := flagModes[f]
		switch {
		case slices.Contains(modes, mode):
		case mode != "exp":
			return "", fmt.Errorf("-%s does nothing with -%s; drop one of them", f, mode)
		default:
			return "", fmt.Errorf("-%s requires -%s", f, strings.Join(modes, " or -"))
		}
	}
	for _, f := range []string{"nodes", "pj", "j", "cache", "cache-ttl", "slo", "metrics-interval"} {
		if v, ok := given[f]; ok {
			if x, err := flagNumber(v); err != nil || x < 0 {
				return "", fmt.Errorf("-%s must be non-negative, got %s", f, v)
			}
		}
	}
	for _, f := range []string{"slo-window", "flight-window"} {
		if v, ok := given[f]; ok {
			if x, err := flagNumber(v); err != nil || x <= 0 {
				return "", fmt.Errorf("-%s must be positive, got %s", f, v)
			}
		}
	}
	// These flags are milliseconds of simulated time: a positive value
	// below the 1 ps resolution would round to zero and then panic the
	// SLO monitor or fall back to the default window unannounced.
	for _, f := range []string{"slo", "slo-window", "flight-window"} {
		if v, ok := given[f]; ok {
			if x, _ := flagNumber(v); x > 0 && sim.FromSeconds(x/1e3) == 0 {
				return "", fmt.Errorf("-%s %s ms rounds to 0 ps of simulated time", f, v)
			}
		}
	}
	requires := [][2]string{
		{"slo-window", "slo"}, {"flight-window", "flight"}, {"detect", "flight"},
		{"cache-ttl", "cache"},
	}
	if mode == "exp" {
		// -cluster and -trace sample on the interval alone; experiments
		// are sampled only for a -metrics dump.
		requires = append(requires, [2]string{"metrics-interval", "metrics"})
	}
	for _, r := range requires {
		if has(r[0]) && !has(r[1]) {
			return "", fmt.Errorf("-%s requires -%s", r[0], r[1])
		}
	}
	return mode, nil
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
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses and checks the flags, runs the selected mode with its
// report on stdout and its status lines on stderr, and returns the
// process exit code: 2 for a flag that does not parse, 1 for a rejected
// flag or a failed run, 0 otherwise (-h included). Once the flags
// validate, the -cpuprofile and -memprofile files are written on every
// exit path, and failing to write one fails the run.
func cli(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("reachsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		co        clusterOptions
		ra        runAllOptions
		exp       = fs.String("exp", "all", "experiment id (see -list)")
		csvOut    = fs.Bool("csv", false, "emit CSV instead of aligned text")
		tracePath = fs.String("trace", "", "write a Chrome trace of a ReACH pipeline run to this file")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
		metricsF  = fs.String("metrics", "", "sample every run's resources and write the time series here as CSV; also prints per-run bottleneck-attribution tables")
		metricsIv = fs.Duration("metrics-interval", 0, "simulated-time sampling period for -metrics (default 10µs)")
		spans     = fs.Bool("spans", false, "with -trace or -cluster, record GAM decision spans into the Chrome trace")
		qtraceF   = fs.String("qtrace", "", "trace every query and write per-query timelines here (interval CSV plus a *_summary.csv)")
	)
	// The mode flags are read off the flag contract's given set.
	fs.Bool("list", false, "list experiment ids and exit")
	fs.Bool("stats", false, "run a ReACH pipeline and dump all component statistics")
	fs.Bool("cluster", false, "run one sharded scatter-gather cluster deployment and print its summary table")
	fs.Int("pj", 0, "deprecated and ignored: cluster event domains always run serially (still parsed so existing scripts work; negative values are rejected)")
	fs.IntVar(&ra.jobs, "j", 0, "max simulations in flight across all experiments (0 = GOMAXPROCS)")
	fs.BoolVar(&ra.progress, "progress", false, "print per-run progress counters to stderr as experiments execute")
	fs.IntVar(&co.nodes, "nodes", 0, "with -cluster, override the node count (default 4)")
	fs.StringVar(&co.route, "route", "", "with -cluster, override the routing policy: hash, rr, p2c (default p2c)")
	fs.IntVar(&co.cache, "cache", 0, "with -cluster, enable the front-end result cache with this many entries (0 = off, the default)")
	fs.Float64Var(&co.cacheTTL, "cache-ttl", 0, "with -cluster -cache, override the cache TTL in milliseconds (0 = config default, 500)")
	fs.Float64Var(&co.sloMs, "slo", 0, "with -cluster, latency objective in milliseconds: track tumbling sim-time windows of p50/p99/p999 and SLO burn, print the window table")
	fs.Float64Var(&co.sloWindowMs, "slo-window", defaultSLOWindowMS, "with -cluster -slo, tumbling window width in milliseconds")
	fs.StringVar(&co.flightDir, "flight", "", "with -cluster, run the always-on flight recorder and write a diagnostic bundle directory under this path (triggered by -detect, else an end-of-run dump)")
	fs.Float64Var(&co.flightWinMs, "flight-window", defaultFlightWindowMS, "with -cluster -flight, retention window in simulated milliseconds")
	fs.BoolVar(&co.detect, "detect", false, "with -cluster -flight, arm the online anomaly detectors (SLO burn rate, queue divergence, cache collapse); the first trigger freezes the rings and the bundle captures the anomaly window")
	fs.StringVar(&co.arrival, "arrival", "", "with -cluster, arrival process: poisson (default) or flash (a seeded flash crowd — the middle third of a longer query sequence arrives 8x faster)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "reachsim:", err)
		return 1
	}
	given := map[string]string{}
	fs.Visit(func(f *flag.Flag) {
		// A boolean flag set false is the flag left out.
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !ok || !b.IsBoolFlag() || f.Value.String() != "false" {
			given[f.Name] = f.Value.String()
		}
	})
	mode, err := validateFlags(given)
	if err != nil {
		return fail(err)
	}

	// Profiling wraps whichever mode runs below, so profiling the full
	// evaluation (`-exp all -cpuprofile cpu.pb.gz`) needs no custom build.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				code = fail(err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			err := writeFile(*memProf, func(w io.Writer) error {
				runtime.GC() // report retained heap, not transient garbage
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				code = fail(err)
			}
		}()
	}

	// Any metrics flag turns sampling on; in experiments mode the flag
	// contract leaves -metrics itself as the only way.
	var mo *metrics.Options
	if *metricsF != "" || *spans || *metricsIv > 0 {
		mo = &metrics.Options{Spans: *spans, Interval: sim.Time(metricsIv.Nanoseconds()) * sim.Nanosecond}
	}

	switch mode {
	case "cluster":
		co.csv, co.metrics, co.metricsPath, co.tracePath = *csvOut, mo, *metricsF, *tracePath
		err = runCluster(stdout, stderr, co)
	case "stats":
		err = writeStats(stdout, *csvOut)
	case "trace":
		err = writeTrace(stdout, stderr, *tracePath, mo, *metricsF)
	case "list":
		_, err = io.WriteString(stdout, listOutput())
	default:
		ids := []string{*exp}
		if *exp == "all" {
			ids = tableIDs(true)
		}
		ra.csv, ra.metrics, ra.metricsPath, ra.qtracePath = *csvOut, mo, *metricsF, *qtraceF
		err = runAll(stdout, stderr, ids, workload.DefaultModel(), ra)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// writeStats runs the reference ReACH pipeline and dumps its sorted
// statistics snapshot, then its shared-resource table.
func writeStats(w io.Writer, csv bool) error {
	run, err := experiments.RunPipeline(workload.DefaultModel(), experiments.ReACHMapping(), 4, 8)
	if err != nil {
		return err
	}
	if err := run.Sys.WriteSnapshot(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return emit(report.ResourceTable(run.Sys.Engine().Stats()), w, csv)
}

// listOutput renders the -list contract: the `-exp all` ids sorted, one
// per line, then the runnable extras grouped under a labeled section so
// scripts consuming the top block never pick up a non-default id by
// accident.
func listOutput() string {
	ids, extras := tableIDs(true), tableIDs(false)
	sort.Strings(ids)
	sort.Strings(extras)
	return strings.Join(ids, "\n") + "\n\nextra (runnable, excluded from -exp all):\n" +
		strings.Join(extras, "\n") + "\n"
}

// clusterOptions are the -cluster path's knobs: the deployment overrides
// and the observability sinks riding the run.
type clusterOptions struct {
	nodes    int
	route    string
	cache    int
	cacheTTL float64
	csv      bool

	// metrics, when non-nil, attaches the barrier-driven cluster sampler
	// (plus per-node GAM span logs when Spans is set) and enables straggler
	// tracking, printing the per-merge attribution table after the summary.
	metrics *metrics.Options
	// metricsPath receives the sampled time series as CSV.
	metricsPath string
	// tracePath receives a Chrome trace with one process group per node.
	tracePath string
	// sloMs > 0 tracks tumbling sim-time windows of latency quantiles
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
// result cache overridable), its summary table on w and its status lines
// on stderr.
func runCluster(w, stderr io.Writer, o clusterOptions) error {
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
	var slo *flight.SLOMonitor
	if o.sloMs > 0 {
		width := o.sloWindowMs
		if width <= 0 {
			width = defaultSLOWindowMS
		}
		slo = flight.NewSLOMonitor(sim.FromSeconds(width/1e3), sim.FromSeconds(o.sloMs/1e3))
		qo.Observers = append(qo.Observers, slo)
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
		}
		// The metrics sampler notifies first, so its series match a
		// flight-off run.
		cl.Multi().SetBarrierObserver(barriers...)
	}
	cl, t, err := experiments.ClusterRun(workload.DefaultModel(), ccfg,
		queries, rate, arr, qo, observe)
	if err != nil {
		return err
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
		if err := writeMetrics(w, o.metricsPath, []sampledRun{{label: "cluster", series: rec.Sampler}}, o.csv); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "cluster metrics written to %s\n", o.metricsPath)
	}
	if o.tracePath != "" {
		if err := writeClusterTrace(o.tracePath, ccfg.Nodes, cl, rec); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace written to %s (open in chrome://tracing or Perfetto)\n", o.tracePath)
	}
	if fr != nil {
		dir, err := writeFlightBundle(o.flightDir, fr, cl, ccfg.Nodes, rec)
		if err != nil {
			return err
		}
		if fr.Frozen() {
			v := fr.Verdict()
			fmt.Fprintf(stderr, "flight: %s detected at %.3f ms; bundle written to %s\n",
				v.Detector, v.TriggerMS, dir)
		} else {
			fmt.Fprintf(stderr, "flight: no anomaly detected; end-of-run bundle written to %s\n", dir)
		}
	}
	fmt.Fprintf(stderr, "cluster run complete: %d queries\n", cl.Completed())
	return nil
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
	tl.AddCluster(nodes, cl.QLog().Queries(), counters, spans)
	return writeFile(path, tl.WriteJSON)
}

// writeFile creates path and hands write a buffered writer on it. A
// failure to write, flush or close the file is returned, so an artifact
// that did not fully reach the disk is never reported as written.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runAllOptions are the execution/output knobs of runAll, beyond what to
// run: concurrency, output format, observability.
type runAllOptions struct {
	jobs     int
	csv      bool
	progress bool
	// metrics/metricsPath, when set, sample every run and cluster-sweep
	// cell and write the combined time series to metricsPath as CSV, plus
	// a bottleneck-attribution table per sampled RunSpec run.
	metrics     *metrics.Options
	metricsPath string
	// qtracePath, when set, traces every query of every RunSpec-based run
	// and receives the per-query timelines as an interval CSV plus a
	// *_summary.csv.
	qtracePath string
}

// sampledRun is one sampled simulation: its label, its time series and,
// for a RunSpec run, the phase windows its bottleneck table attributes
// (nil for a cluster run or sweep cell, which has no single-engine
// phases).
type sampledRun struct {
	label  string
	series metrics.Source
	phases []metrics.PhaseWindow
}

// tracedRun is one query-traced run: its label and query log.
type tracedRun struct {
	label string
	log   *qtrace.Log
}

// runAll executes the experiments concurrently on a shared simulation pool
// and emits their tables in id order on w, its status lines on stderr.
// The pool bounds the total number of in-flight simulations at -j across
// all experiments (every experiment's internal sweep draws from the same
// budget), so the output is identical for any -j: tables are collected
// per experiment and printed in order, and sampled and traced runs are
// collected per experiment in declaration order.
func runAll(w, stderr io.Writer, ids []string, m workload.Model, o runAllOptions) error {
	pool := runner.NewPool(o.jobs)
	sampled := make([][]sampledRun, len(ids))
	traced := make([][]tracedRun, len(ids))
	// The outer fan-out has a pool of its own, one slot per experiment, so
	// every experiment starts at once; only their leaf simulations hold
	// slots of the shared -j pool, so the nesting cannot deadlock.
	tables, err := runner.Map(context.Background(), runner.Options{Pool: runner.NewPool(len(ids))}, ids,
		func(_ context.Context, i int, id string) (*report.Table, error) {
			opts := []experiments.Option{experiments.WithPool(pool)}
			if o.progress {
				opts = append(opts, experiments.WithProgress(func(done, total int, name string) {
					fmt.Fprintf(stderr, "[%s] %d/%d %s\n", id, done, total, name)
				}))
			}
			// The observe callbacks run serially per experiment after its
			// runs complete, so sampled[i] and traced[i] need no lock.
			if o.metrics != nil {
				opts = append(opts, experiments.WithMetrics(*o.metrics,
					func(run string, series metrics.Source, phases []metrics.PhaseWindow) {
						sampled[i] = append(sampled[i], sampledRun{id + "/" + run, series, phases})
					}))
			}
			if o.qtracePath != "" {
				opts = append(opts, experiments.WithQTrace(
					func(run string, res *experiments.RunResult) {
						traced[i] = append(traced[i], tracedRun{id + "/" + run, res.QLog})
					}))
			}
			return run(id, m, opts...)
		})
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := emit(t, w, o.csv); err != nil {
			return err
		}
	}
	if o.metricsPath != "" {
		runs := slices.Concat(sampled...)
		if err := writeMetrics(w, o.metricsPath, runs, o.csv); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "metrics for %d runs written to %s\n", len(runs), o.metricsPath)
	}
	if o.qtracePath != "" {
		return writeQTrace(stderr, o.qtracePath, slices.Concat(traced...))
	}
	return nil
}

// writeMetrics dumps the runs' time series to path as CSV, in the order
// given, and emits on w a bottleneck-attribution table for each run that
// has phase windows.
func writeMetrics(w io.Writer, path string, runs []sampledRun, csv bool) error {
	return writeFile(path, func(f io.Writer) error {
		cw := metrics.NewCSVWriter(f)
		for _, r := range runs {
			if err := cw.WriteRun(r.label, r.series); err != nil {
				return err
			}
			if r.phases == nil {
				continue
			}
			t := report.Bottleneck("Bottleneck attribution — "+r.label, metrics.Attribute(r.series, r.phases))
			if err := emit(t, w, csv); err != nil {
				return err
			}
		}
		return nil
	})
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

// writeQTrace dumps the runs' per-query timelines, in the order given: the
// phase intervals to path as CSV, and the per-query latencies and dominant
// attributions to its *_summary.csv. It announces both on stderr.
func writeQTrace(stderr io.Writer, path string, runs []tracedRun) error {
	sumPath := qtraceSummaryPath(path)
	err := writeFile(path, func(w io.Writer) error {
		return writeFile(sumPath, func(sw io.Writer) error {
			cw := qtrace.NewCSVWriter(w, sw)
			for _, r := range runs {
				if err := cw.WriteRun(r.label, r.log); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "per-query traces for %d runs written to %s and %s\n", len(runs), path, sumPath)
	return nil
}

func emit(t *report.Table, w io.Writer, csv bool) error {
	if csv {
		return t.CSV(w)
	}
	return t.Render(w)
}

// writeTrace runs an 8-batch ReACH pipeline and dumps its timeline to
// path, one lane per query with its phase intervals merged in. With a
// non-nil metrics option the run is sampled: counter lanes and (when
// enabled) GAM decision spans are merged into the trace, and the raw time
// series additionally lands at metricsPath when set, its bottleneck table
// on w. Status lines go to stderr.
func writeTrace(w, stderr io.Writer, path string, mo *metrics.Options, metricsPath string) error {
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
			r := sampledRun{"trace/" + spec.Name, run.Obs.Sampler, run.PhaseWindows()}
			if err := writeMetrics(w, metricsPath, []sampledRun{r}, false); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "metrics for 1 runs written to %s\n", metricsPath)
		}
	}
	if err := writeFile(path, tl.WriteJSON); err != nil {
		return err
	}
	if addErr != nil {
		return fmt.Errorf("trace written incomplete: %w", addErr)
	}
	fmt.Fprintf(stderr, "trace written to %s (open in chrome://tracing or Perfetto)\n", path)
	return nil
}
