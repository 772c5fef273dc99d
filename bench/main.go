// Command bench is the repository's benchmark. It runs named workloads
// against the simulator, checks that their outputs are correct, and
// reports end-to-end metrics (median and quartiles over repeated passes,
// each pass in a fresh process) or, with -trace 1, per-layer metrics and a
// span file. See README.md for the workloads, the metrics and the
// comparison protocol.
//
//	bash bench/run.sh                               # all workloads, 5 passes each
//	bash bench/run.sh -workload cluster-steady -seconds 20
//	bash bench/run.sh -trace 1 -o trace.json        # per-layer metrics + spans
//	bash bench/run.sh compare OLD.json NEW.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// minPasses is the fewest passes a -seconds run makes, so even the
// longest workload reports the median of several set-ups and runs.
const minPasses = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		workloadF = flag.String("workload", "", "run only this workload and print the result as a JSON last line")
		seedF     = flag.Int64("seed", 1, "seed of the generated query arrivals")
		secondsF  = flag.Float64("seconds", 0, "with -workload, repeat passes until this many seconds have passed (0: -reps passes)")
		repsF     = flag.Int("reps", 5, "passes per workload; successive reps alternate the workload order")
		traceF    = flag.Int("trace", 0, "1: run one timed and one traced pass per workload and report per-layer metrics")
		outF      = flag.String("o", "", "write the JSON record to this file")
		spansF    = flag.String("spans", "", "with -trace 1, write the span file here (default <out>/spans.json)")
		quickF    = flag.Bool("quick", false, "run the in-process workloads at 1/50 of their queries (a smoke test)")
		rootF     = flag.String("root", "", "repository root (default: found from the working directory)")
		dirF      = flag.String("out", "", "directory for builds and scratch files (default <root>/.bench_build)")
		childF    = flag.String("child", "", "internal: run one in-process pass, or \"ladder\", and print it as JSON")
		cpuProfF  = flag.String("cpuprofile", "", "internal: with -child, trace the pass and write its CPU profile here")
		scaleF    = flag.Int("scale", 1, "internal: with -child, divide the query counts by this")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	root := *rootF
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			fatal(err)
		}
	}
	if *childF != "" {
		if err := childMain(os.Stdout, *childF, root, *seedF, *scaleF, *cpuProfF); err != nil {
			fatal(err)
		}
		return
	}
	if *traceF != 0 && *traceF != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traceF))
	}
	e := &env{root: root, out: *dirF, seed: *seedF, scale: 1}
	if *quickF {
		e.scale = 50
	}
	if e.out == "" {
		e.out = filepath.Join(root, ".bench_build")
	}
	ws := workloads
	if *workloadF != "" {
		w, err := findWorkload(*workloadF)
		if err != nil {
			fatal(err)
		}
		ws = []*workloadDef{w}
	}
	if err := e.prepare(); err != nil {
		fatal(err)
	}

	rec := &record{Schema: recordSchema, Seed: e.seed, Trace: *traceF == 1}
	spans := newSpanLog("")
	if rec.Trace {
		for _, w := range ws {
			spans.workload = w.Name
			rec.Workloads = append(rec.Workloads, e.traceWorkload(w, spans))
		}
	} else {
		passes := map[string][]passResult{}
		if *workloadF != "" && *secondsF > 0 {
			w := ws[0]
			for t0 := time.Now(); time.Since(t0).Seconds() < *secondsF || len(passes[w.Name]) < minPasses; {
				p := e.pass(w, nil, false)
				passes[w.Name] = append(passes[w.Name], p)
				if p.Err != nil {
					break // the run is incorrect already; a failing pass can be instant
				}
			}
		} else {
			for r := 0; r < *repsF; r++ {
				for i := range ws {
					w := ws[i]
					if r%2 == 1 {
						w = ws[len(ws)-1-i]
					}
					passes[w.Name] = append(passes[w.Name], e.pass(w, nil, false))
				}
			}
		}
		for _, w := range ws {
			rec.Workloads = append(rec.Workloads, aggregate(w, passes[w.Name]))
		}
	}

	stdout := bufio.NewWriter(os.Stdout)
	for i := range rec.Workloads {
		printWorkload(stdout, &rec.Workloads[i])
	}
	if rec.Trace {
		path := *spansF
		if path == "" {
			path = filepath.Join(e.out, "spans.json")
		}
		if err := writeSpans(path, spans.spans); err != nil {
			fatal(err)
		}
		printSelfTime(stdout, spans.spans)
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if *outF != "" {
		rec.Host = collectHost(root)
		if err := writeRecord(*outF, rec); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "record written to %s\n", *outF)
	}
	correct := true
	for _, wr := range rec.Workloads {
		correct = correct && wr.Failed == 0
	}
	if *workloadF != "" {
		if err := writeResultLine(stdout, &rec.Workloads[0], rec.Trace); err != nil {
			fatal(err)
		}
	}
	if err := stdout.Flush(); err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

// prepare creates the scratch directory and builds reachsim into it.
func (e *env) prepare() error {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	e.self = self
	e.reachsim, err = buildReachsim(e.root, e.out)
	return err
}

// childMain runs one in-process pass (or the ladder) and prints it as JSON.
func childMain(w io.Writer, name, root string, seed int64, scale int, cpuProfile string) error {
	if name == "ladder" {
		l, err := runLadder()
		if err != nil {
			return err
		}
		return json.NewEncoder(w).Encode(l)
	}
	wd, err := findWorkload(name)
	if err != nil {
		return err
	}
	if !wd.inProcess() {
		return fmt.Errorf("workload %s runs reachsim, not in-process", name)
	}
	var prof *os.File
	if cpuProfile != "" {
		if prof, err = os.Create(cpuProfile); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
	}
	out, err := runClusterPass(wd, root, seed, scale, prof != nil)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(out)
}

// aggregate reduces a workload's passes to its record. Every check a pass
// fails counts all of that pass's operations as failed; passes whose
// model digests disagree fail the whole run.
func aggregate(w *workloadDef, passes []passResult) workloadRecord {
	wr := workloadRecord{Name: w.Name}
	var ok []passResult
	for _, p := range passes {
		wr.Attempted += p.Attempted
		if p.Err != nil {
			wr.Failed += p.Attempted
			wr.Errors = append(wr.Errors, p.Err.Error())
			continue
		}
		ok = append(ok, p)
	}
	for _, p := range ok {
		if wr.Digest == "" {
			wr.Digest = p.Digest
		} else if p.Digest != wr.Digest {
			wr.Errors = append(wr.Errors, fmt.Sprintf("model digest differs across passes: %.12s vs %.12s", wr.Digest, p.Digest))
			wr.Failed = wr.Attempted
			break
		}
	}
	for _, d := range endToEnd {
		st := metricStat{metricDef: d}
		for _, p := range ok {
			if v, has := p.Values[d.Name]; has {
				st.Values = append(st.Values, v)
			}
		}
		if d.Name == "failed_frac" && wr.Attempted > 0 {
			st.Values = []float64{float64(wr.Failed) / float64(wr.Attempted)}
		}
		if len(st.Values) > 0 {
			st.summarize()
			wr.Metrics = append(wr.Metrics, st)
		}
	}
	return wr
}

func printWorkload(w io.Writer, wr *workloadRecord) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, model digest %.16s\n", wr.Name, wr.Attempted, wr.Failed, wr.Digest)
	for _, e := range wr.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	printStats(w, wr.Metrics)
	if len(wr.Layers) > 0 {
		fmt.Fprintf(w, "  per-layer:\n")
		printStats(w, wr.Layers)
	}
}

func printStats(w io.Writer, stats []metricStat) {
	for _, m := range stats {
		fmt.Fprintf(w, "  %-38s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g n %d\n",
			m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N)
	}
}

// printSelfTime prints host self time per layer from the recorded spans.
func printSelfTime(w io.Writer, spans []span) {
	by := map[string]map[string]float64{}
	var names []string
	for i, ns := range selfNS(spans) {
		s := spans[i]
		if by[s.Workload] == nil {
			by[s.Workload] = map[string]float64{}
			names = append(names, s.Workload)
		}
		by[s.Workload][s.Layer] += float64(ns) / 1e6
	}
	fmt.Fprintf(w, "span self time (ms) by layer:\n")
	for _, n := range names {
		var layers []string
		for l := range by[n] {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var parts []string
		for _, l := range layers {
			parts = append(parts, fmt.Sprintf("%s %.1f", l, by[n][l]))
		}
		fmt.Fprintf(w, "  %-18s %s\n", n, strings.Join(parts, ", "))
	}
}

// resultMetric and resultLine are the JSON last line of a -workload run.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// writeResultLine prints the medians of the metrics BENCHMARK.json
// declares: the end-to-end ones, or with trace the per-layer ones.
func writeResultLine(w io.Writer, wr *workloadRecord, trace bool) error {
	line := resultLine{
		Correct:   wr.Failed == 0,
		Attempted: wr.Attempted,
		Failed:    wr.Failed,
		Metrics:   map[string]resultMetric{},
	}
	stats := wr.Metrics
	if trace {
		stats = wr.Layers
	}
	for _, m := range stats {
		if m.Contract {
			line.Metrics[m.Name] = resultMetric{Value: m.Median, Unit: m.Unit}
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(raw), "\n"); strings.TrimSpace(first) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a go.mod declaring module repro) above the working directory")
		}
		dir = parent
	}
}

// collectHost describes the machine and the commit a record comes from.
func collectHost(root string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
	}
	h.Hostname, _ = os.Hostname() // informational; empty when unavailable
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit reads HEAD's commit from .git without running git, or
// "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
