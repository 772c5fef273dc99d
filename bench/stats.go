package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Metric kinds. A host metric is measured on the host and carries noise; a
// sim metric is a simulated output, deterministic for fixed inputs, so any
// change in it means the model changed.
const (
	kindHost = "host"
	kindSim  = "sim"
)

// metricDef describes one reported quantity.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Kind   string  `json:"kind"`
	Bound  float64 `json:"bound"` // allowed worsening as a share of the baseline median; 0 for sim metrics
	// Contract marks the metrics every workload reports; these are the
	// end-to-end metrics BENCHMARK.json declares.
	Contract bool `json:"-"`
}

// endToEnd lists the end-to-end metrics. A workload reports the ones that
// apply to it; the Contract ones apply to all five. The host-time bounds
// are wide because the 2-core host's speed drifts by 10–20% over minutes
// (README.md, "Noise").
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Kind: kindHost, Bound: 0.25, Contract: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Kind: kindHost, Bound: 0.25, Contract: true},
	{Name: "cpu_s", Unit: "s", Better: "lower", Kind: kindHost, Bound: 0.25, Contract: true},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Kind: kindHost, Bound: 0.25, Contract: true},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Kind: kindHost, Bound: 0.05},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Kind: kindHost, Bound: 0.25},
	{Name: "sim_p50_ms", Unit: "ms", Better: "lower", Kind: kindSim},
	{Name: "sim_p99_ms", Unit: "ms", Better: "lower", Kind: kindSim},
	{Name: "sustainable_qps", Unit: "q/s", Better: "higher", Kind: kindSim},
	{Name: "reach_throughput_x", Unit: "x", Better: "higher", Kind: kindSim},
	{Name: "reach_latency_x", Unit: "x", Better: "higher", Kind: kindSim},
	{Name: "reach_energy_reduction_pct", Unit: "%", Better: "higher", Kind: kindSim},
	{Name: "failed_frac", Unit: "1", Better: "lower", Kind: kindSim},
}

// metricStat is one metric's samples over the passes of a run and their
// summary.
type metricStat struct {
	metricDef
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

// summarize fills Median, Q1, Q3 and N from Values.
func (m *metricStat) summarize() {
	m.N = len(m.Values)
	m.Median = median(m.Values)
	m.Q1, m.Q3 = quartiles(m.Values)
}

// spread is the interquartile range as a share of the median.
func (m *metricStat) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / abs(m.Median)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// spreads computed here agree with ones computed from the printed values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		ld := len(s)
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// hostInfo identifies the machine and build a record was measured on.
type hostInfo struct {
	Hostname   string `json:"hostname"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// workloadRecord is everything measured for one workload in one run.
type workloadRecord struct {
	Name      string       `json:"name"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Digest    string       `json:"digest"`
	Errors    []string     `json:"errors,omitempty"`
	Metrics   []metricStat `json:"metrics"`
	Layers    []metricStat `json:"layers,omitempty"`
}

// metric returns the named end-to-end metric, or nil.
func (w *workloadRecord) metric(name string) *metricStat {
	for i := range w.Metrics {
		if w.Metrics[i].Name == name {
			return &w.Metrics[i]
		}
	}
	return nil
}

// layer returns the named per-layer metric, or nil.
func (w *workloadRecord) layer(name string) *metricStat {
	for i := range w.Layers {
		if w.Layers[i].Name == name {
			return &w.Layers[i]
		}
	}
	return nil
}

// record is one benchmark run over one or more workloads: the file
// `compare` reads.
type record struct {
	Schema    int              `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Workloads []workloadRecord `json:"workloads"`
}

const recordSchema = 1

func (r *record) workload(name string) *workloadRecord {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func writeRecord(path string, r *record) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if r.Schema != recordSchema {
		return nil, fmt.Errorf("%s: record schema %d, want %d", path, r.Schema, recordSchema)
	}
	return &r, nil
}
