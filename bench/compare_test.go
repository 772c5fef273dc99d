package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// lookupDef finds an end-to-end metric definition by name.
func lookupDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// syntheticRecord is a record of one workload whose host metrics read
// about base·scale (a little spread around it) and whose per-layer
// sim.round_host_us reads about 20 µs·layerScale.
func syntheticRecord(scale, layerScale float64) *record {
	stat := func(d metricDef, vals ...float64) metricStat {
		m := metricStat{metricDef: d, Values: vals}
		m.summarize()
		return m
	}
	def := func(name string) metricDef {
		d, ok := lookupDef(name)
		if !ok {
			panic(name)
		}
		return d
	}
	noisy := func(base, scale float64) []float64 {
		var v []float64
		for _, f := range []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01} {
			v = append(v, base*scale*f)
		}
		return v
	}
	var roundHost metricDef
	for _, d := range layerDefs {
		if d.Name == "sim.round_host_us" {
			roundHost = d
		}
	}
	return &record{
		Schema: recordSchema,
		Seed:   1,
		Workloads: []workloadRecord{{
			Name:      "cluster-steady",
			Attempted: 80000,
			Digest:    "digest",
			Metrics: []metricStat{
				stat(def("wall_s"), noisy(5.5, scale)...),
				stat(def("setup_s"), noisy(0.015, 1)...),
				stat(def("sim_p99_ms"), 623.354),
				stat(def("failed_frac"), 0),
			},
			Layers: []metricStat{stat(roundHost, noisy(20, layerScale)...)},
		}},
	}
}

func findRow(rows []finding, metric string) finding {
	for _, f := range rows {
		if f.New.Name == metric {
			return f
		}
	}
	return finding{}
}

func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	oldR, newR := syntheticRecord(1, 1), syntheticRecord(2, 2)
	rows, _ := compareRecords(oldR, newR)
	if f := findRow(rows, "wall_s"); f.Verdict != verdictWorse || !f.Fails {
		t.Errorf("2x wall_s: verdict %q fails %v, want worse and failing", f.Verdict, f.Fails)
	}
	if f := findRow(rows, "sim.round_host_us"); f.Verdict != verdictWorse || f.Fails {
		t.Errorf("2x sim.round_host_us: verdict %q fails %v, want worse, informational", f.Verdict, f.Fails)
	}
	if f := findRow(rows, "setup_s"); f.Verdict != verdictSame {
		t.Errorf("unchanged setup_s: verdict %q, want same", f.Verdict)
	}
	if code := compareFiles(t, oldR, newR); code != 1 {
		t.Errorf("compare exited %d on a 2x slowdown, want 1", code)
	}
	// The same slowdown read the other way round is a gain.
	rows, _ = compareRecords(newR, oldR)
	if f := findRow(rows, "wall_s"); f.Verdict != verdictBetter || f.Fails {
		t.Errorf("2x speed-up: verdict %q fails %v, want better", f.Verdict, f.Fails)
	}
}

func TestCompareIdenticalRecordsHaveNoFindings(t *testing.T) {
	r := syntheticRecord(1, 1)
	rows, notes := compareRecords(r, r)
	for _, f := range rows {
		if f.Verdict != verdictSame || f.Fails {
			t.Errorf("%s: verdict %q fails %v on identical records", f.New.Name, f.Verdict, f.Fails)
		}
	}
	if len(notes) != 0 {
		t.Errorf("notes on identical records: %v", notes)
	}
	if code := compareFiles(t, r, r); code != 0 {
		t.Errorf("compare exited %d on identical records, want 0", code)
	}
}

func TestCompareModelChangeAndFailures(t *testing.T) {
	oldR, newR := syntheticRecord(1, 1), syntheticRecord(1, 1)
	p99 := newR.Workloads[0].metric("sim_p99_ms")
	p99.Values, p99.Median = []float64{600}, 600
	rows, _ := compareRecords(oldR, newR)
	if f := findRow(rows, "sim_p99_ms"); f.Verdict != verdictModelChanged || f.Fails {
		t.Errorf("lower p99: verdict %q fails %v, want model-changed, not failing", f.Verdict, f.Fails)
	}
	p99.Values, p99.Median = []float64{650}, 650
	rows, _ = compareRecords(oldR, newR)
	if f := findRow(rows, "sim_p99_ms"); f.Verdict != verdictModelChanged || !f.Fails {
		t.Errorf("higher p99: verdict %q fails %v, want model-changed and failing", f.Verdict, f.Fails)
	}

	newR = syntheticRecord(1, 1)
	ff := newR.Workloads[0].metric("failed_frac")
	ff.Values, ff.Median = []float64{0.01}, 0.01
	rows, _ = compareRecords(oldR, newR)
	if f := findRow(rows, "failed_frac"); !f.Fails {
		t.Errorf("higher failed_frac: verdict %q does not fail", f.Verdict)
	}
}

func TestCompareUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	oldR, newR := syntheticRecord(1, 1), syntheticRecord(1.05, 1)
	w := newR.Workloads[0].metric("wall_s")
	w.Values = []float64{3, 8, 4, 7, 5, 6, 5.5, 6.5, 4.5, 5.8}
	w.summarize()
	rows, _ := compareRecords(oldR, newR)
	if f := findRow(rows, "wall_s"); f.Verdict != verdictUnresolved || f.Fails {
		t.Errorf("wide spread: verdict %q fails %v, want unresolved", f.Verdict, f.Fails)
	}
}

func TestCompareMergesRecordLists(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeRecord(a, syntheticRecord(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(b, syntheticRecord(1.01, 1)); err != nil {
		t.Fatal(err)
	}
	m, err := readRecords(a + "," + b)
	if err != nil {
		t.Fatal(err)
	}
	w := m.Workloads[0]
	if n := w.metric("wall_s").N; n != 20 {
		t.Errorf("merged wall_s has %d values, want 20", n)
	}
	if w.Attempted != 160000 {
		t.Errorf("merged attempted %d, want 160000", w.Attempted)
	}
	// One run against two merged runs of the same model: no findings.
	rows, _ := compareRecords(syntheticRecord(1, 1), m)
	for _, f := range rows {
		if f.Verdict != verdictSame {
			t.Errorf("%s: verdict %q against a merged record of the same model", f.New.Name, f.Verdict)
		}
	}
}

// compareFiles runs the compare command on the two records and returns its
// exit code.
func compareFiles(t *testing.T, oldR, newR *record) int {
	t.Helper()
	dir := t.TempDir()
	a, b := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	if err := writeRecord(a, oldR); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(b, newR); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := compareMain([]string{a, b}, &out, &errOut)
	if !strings.Contains(out.String(), "findings") {
		t.Errorf("compare printed no summary line:\n%s%s", out.String(), errOut.String())
	}
	return code
}
