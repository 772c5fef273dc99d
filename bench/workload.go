package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// workloadDef is one named workload. In-process workloads drive the
// cluster API directly, one cluster run per rung; CLI workloads run the
// reachsim binary with fixed flags.
type workloadDef struct {
	Name string

	// In-process cluster workloads: the deployment is
	// bench/workloads/<Name>.json, each rung is one cluster run of Queries
	// open-loop arrivals at Rungs[i] q/s, and Headline names the rung whose
	// latency quantiles are reported.
	Rungs    []float64
	Queries  int
	Headline float64

	// CLI workloads: the reachsim arguments of one pass writing its
	// artifacts under dir, the operations one pass attempts, and the check
	// that turns its output into simulated metrics and a model digest.
	Args      func(dir string) []string
	Attempted int
	Check     func(stdout []byte, dir string) (*cliResult, error)
}

func (w *workloadDef) inProcess() bool { return w.Args == nil }

// cliResult is what a CLI workload's check extracts from one pass.
type cliResult struct {
	Digest string
	Values map[string]float64 // simulated metrics
	Events float64            // simulated events, when the output reports them
}

// workloads is the benchmark's workload set. The order is the order a
// record lists them in.
var workloads = []*workloadDef{
	// What a reader runs to reproduce the paper; host time is mostly
	// k-means and PQ training, so kernel work shows here.
	{
		Name: "paper-eval",
		Args: func(string) []string {
			return []string{"-exp", "all", "-j", strconv.Itoa(runtime.NumCPU())}
		},
		Attempted: len(paperTitles),
		Check:     checkPaperEval,
	},
	// 32 nodes across the latency knee with 2 domain workers; host time is
	// the MultiEngine drain, the barrier and GC.
	{
		Name:     "cluster-steady",
		Rungs:    []float64{40, 60, 80, 100},
		Queries:  2000,
		Headline: 80,
	},
	// The same 32 nodes at 1.6x the knee, serial domains; deep GAM ready
	// queues make core dispatch dominate. A pass is short (about 1.5 s), so
	// a run's median covers many passes.
	{
		Name:     "cluster-overload",
		Rungs:    []float64{160},
		Queries:  1000,
		Headline: 160,
	},
	// Most queries are front-end cache hits that never build a job graph.
	{
		Name:     "cluster-hotcache",
		Rungs:    []float64{20},
		Queries:  100000,
		Headline: 20,
	},
	// Every observability sink on; the sinks take almost all host time and
	// memory.
	{
		Name: "cluster-observed",
		Args: func(dir string) []string {
			return []string{"-cluster", "-pj", "1", "-slo", "400", "-arrival", "flash",
				"-flight", filepath.Join(dir, "flight"), "-detect",
				"-metrics", filepath.Join(dir, "m.csv"), "-spans",
				"-trace", filepath.Join(dir, "t.json")}
		},
		Attempted: flashQueries,
		Check:     checkObserved,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// paperTitles starts the title line of each of the 20 tables `-exp all`
// prints, one per experiment id.
var paperTitles = []string{
	"Table I —", "Table II —", "Table III —", "Table IV —",
	"Fig 8 —", "Fig 9 —", "Fig 10 —", "Fig 11 —", "Fig 12 —", "Fig 13 —",
	"Ablation — GAM scheduling", "Ablation — stage-to-level mapping",
	"Ablation — near-storage DRAM buffer", "Ablation — task granularity",
	"Motivation (§IV-A) —", "Load sweep —", "Extension — query skew",
	"Appendix — reverse lookup", "Extension — multi-tenant", "Extension — recall vs probes",
}

// paperIDs are the experiment ids behind paperTitles, in the same order.
var paperIDs = []string{
	"table1", "table2", "table3", "table4",
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"ablation-gam", "ablation-mapping", "ablation-nsbuffer", "ablation-granularity",
	"motivation", "loadsweep", "skew", "reverselookup", "multitenant", "recallsweep",
}

// fig13 is the headline of the paper's Fig. 13 as the simulator reports
// it, beside the paper's own values.
type fig13 struct {
	Throughput, PaperThroughput float64 // x over on-chip
	Latency, PaperLatency       float64 // x over on-chip
	Energy, PaperEnergy         float64 // % energy reduction
}

var fig13Note = regexp.MustCompile(`(?m)^note: ReACH: ([0-9.]+)x throughput \(paper: ([0-9.]+)x\), ` +
	`([0-9.]+)x latency \(paper: ([0-9.]+)x\), ([0-9.]+)% energy reduction \(paper: ([0-9.]+)%\)$`)

// parseFig13 reads the Fig 13 `note:` line.
func parseFig13(out []byte) (fig13, error) {
	m := fig13Note.FindSubmatch(out)
	if m == nil {
		return fig13{}, fmt.Errorf("no Fig 13 headline note in the output")
	}
	var v [6]float64
	for i := range v {
		f, err := strconv.ParseFloat(string(m[i+1]), 64)
		if err != nil {
			return fig13{}, fmt.Errorf("Fig 13 note: %w", err)
		}
		v[i] = f
	}
	return fig13{v[0], v[1], v[2], v[3], v[4], v[5]}, nil
}

// errors against the paper: relative for the two ratios, in percentage
// points for the energy reduction.
func (f fig13) throughputErrPct() float64 {
	return 100 * (f.Throughput - f.PaperThroughput) / f.PaperThroughput
}
func (f fig13) latencyErrPct() float64 { return 100 * (f.Latency - f.PaperLatency) / f.PaperLatency }
func (f fig13) energyErrPP() float64   { return f.Energy - f.PaperEnergy }

func checkPaperEval(stdout []byte, _ string) (*cliResult, error) {
	lines := map[string]bool{}
	for _, l := range strings.Split(string(stdout), "\n") {
		for _, t := range paperTitles {
			if strings.HasPrefix(l, t) {
				lines[t] = true
			}
		}
	}
	for _, t := range paperTitles {
		if !lines[t] {
			return nil, fmt.Errorf("table %q missing from -exp all output", t)
		}
	}
	f, err := parseFig13(stdout)
	if err != nil {
		return nil, err
	}
	return &cliResult{
		Digest: fmt.Sprintf("%x", sha256.Sum256(stdout)),
		Values: map[string]float64{
			"reach_throughput_x":         f.Throughput,
			"reach_latency_x":            f.Latency,
			"reach_energy_reduction_pct": f.Energy,
		},
	}, nil
}

// tableRow finds a "label   value" row of a rendered reachsim table.
func tableRow(out []byte, label string) (string, bool) {
	for _, l := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(l, label+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// flashQueries is the length of reachsim's pinned flash-crowd run.
const flashQueries = 96

func checkObserved(stdout []byte, dir string) (*cliResult, error) {
	done, ok := tableRow(stdout, "queries completed")
	if !ok {
		return nil, fmt.Errorf("no \"queries completed\" row in the cluster summary")
	}
	var completed, submitted int
	if _, err := fmt.Sscanf(done, "%d / %d", &completed, &submitted); err != nil {
		return nil, fmt.Errorf("queries completed %q: %w", done, err)
	}
	if completed != submitted || submitted != flashQueries {
		return nil, fmt.Errorf("flash run merged %d of %d queries, want all %d", completed, submitted, flashQueries)
	}
	bundles, err := filepath.Glob(filepath.Join(dir, "flight", "bundle-*"))
	if err != nil {
		return nil, err
	}
	if len(bundles) != 1 {
		return nil, fmt.Errorf("flight recorder cut %d bundles, want exactly 1", len(bundles))
	}
	raw, err := os.ReadFile(filepath.Join(bundles[0], "verdict.json"))
	if err != nil {
		return nil, err
	}
	var v struct {
		Detector string `json:"detector"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("verdict.json: %w", err)
	}
	if v.Detector != "slo-burn" {
		return nil, fmt.Errorf("bundle verdict names %q, want slo-burn", v.Detector)
	}
	ev, ok := tableRow(stdout, "sim events")
	if !ok {
		return nil, fmt.Errorf("no \"sim events\" row in the cluster summary")
	}
	events, err := strconv.ParseFloat(ev, 64)
	if err != nil {
		return nil, fmt.Errorf("sim events %q: %w", ev, err)
	}
	h := sha256.New()
	h.Write(stdout)
	h.Write(raw)
	return &cliResult{Digest: fmt.Sprintf("%x", h.Sum(nil)), Events: events}, nil
}

// dirMB is the total size of the regular files under dir, in MB.
func dirMB(path string) float64 {
	var n int64
	// The callback swallows every error, so Walk itself returns nil.
	_ = filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return float64(n) / 1e6
}

// sinkGroups are the flash runs of the cluster-observed trace: the bare
// run, then one observability sink group each.
var sinkGroups = []struct {
	Name string
	Args func(dir string) []string
}{
	{"obs.bare_s", func(string) []string { return nil }},
	{"obs.metrics_s", func(dir string) []string {
		return []string{"-metrics", filepath.Join(dir, "m.csv"), "-spans"}
	}},
	{"obs.trace_s", func(dir string) []string { return []string{"-trace", filepath.Join(dir, "t.json")} }},
	{"obs.slo_s", func(string) []string { return []string{"-slo", "400"} }},
	{"obs.flight_s", func(dir string) []string {
		return []string{"-flight", filepath.Join(dir, "flight"), "-detect"}
	}},
}

var flashBase = []string{"-cluster", "-pj", "1", "-arrival", "flash"}
