package main

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestValidateFlagMatrix pins the flag contract: a flag the selected
// mode would silently ignore is an error, so is a numeric value outside
// the flag's domain, and every meaningful combination is accepted. Before
// observability reached the -cluster path, `-cluster -metrics` ran and
// did nothing; now the ignored combos fail fast and the meaningful ones
// do work (see the artifact test below).
func TestValidateFlagMatrix(t *testing.T) {
	// given builds the set-flags map; "name=value" sets a value, a bare
	// name stands for a valid one.
	given := func(flags ...string) map[string]string {
		m := map[string]string{}
		for _, f := range flags {
			name, value, ok := strings.Cut(f, "=")
			if !ok {
				value = "1"
			}
			m[name] = value
		}
		return m
	}
	rejected := []struct {
		flags []string
		want  string // substring of the error
	}{
		{[]string{"cluster", "exp"}, "-exp"},
		{[]string{"cluster", "stats"}, "-stats"},
		{[]string{"cluster", "list"}, "-list"},
		{[]string{"cluster", "config"}, "-config"},
		{[]string{"cluster", "benchout"}, "-benchout"},
		{[]string{"cluster", "j"}, "-j"},
		{[]string{"cluster", "qtrace"}, "-qtrace"},
		{[]string{"cluster", "progress"}, "-progress"},
		{[]string{"nodes"}, "-nodes requires -cluster"},
		{[]string{"route"}, "-route requires -cluster"},
		{[]string{"cache"}, "-cache requires -cluster"},
		{[]string{"cache-ttl"}, "-cache-ttl requires -cluster"},
		{[]string{"slo"}, "-slo requires -cluster"},
		{[]string{"slo-window"}, "-slo-window requires -cluster"},
		{[]string{"cluster", "slo-window"}, "-slo-window requires -slo"},
		{[]string{"cluster", "cache", "cache-ttl", "slo-window"}, "-slo-window requires -slo"},
		{[]string{"cluster", "cache-ttl"}, "-cache-ttl requires -cache"},
		{[]string{"http-linger"}, "-http-linger requires -http"},
		{[]string{"cluster", "http-linger"}, "-http-linger requires -http"},
		{[]string{"flight"}, "-flight requires -cluster"},
		{[]string{"arrival"}, "-arrival requires -cluster"},
		{[]string{"flight-window"}, "-flight-window requires -cluster"},
		{[]string{"cluster", "flight-window"}, "-flight-window requires -flight"},
		{[]string{"cluster", "detect"}, "-detect requires -flight"},
		{[]string{"cluster", "detect", "flight-window"}, "requires -flight"},
		{[]string{"cluster", "nodes=-1"}, "-nodes must be non-negative, got -1"},
		{[]string{"cluster", "pj=-1"}, "-pj must be non-negative, got -1"},
		{[]string{"cluster", "cache=-8"}, "-cache must be non-negative, got -8"},
		{[]string{"cluster", "cache", "cache-ttl=-5"}, "-cache-ttl must be non-negative, got -5"},
		{[]string{"cluster", "slo=-250"}, "-slo must be non-negative, got -250"},
		{[]string{"cluster", "metrics-interval=-10µs"}, "-metrics-interval must be non-negative, got -10µs"},
		{[]string{"metrics-interval=-1ms"}, "-metrics-interval must be non-negative"},
		{[]string{"cluster", "slo", "slo-window=0"}, "-slo-window must be positive, got 0"},
		{[]string{"cluster", "slo", "slo-window=-100"}, "-slo-window must be positive, got -100"},
		{[]string{"cluster", "flight", "flight-window=0"}, "-flight-window must be positive, got 0"},
		{[]string{"cluster", "flight", "flight-window=-1000"}, "-flight-window must be positive, got -1000"},
		{[]string{"cluster", "slo=1e-10"}, "-slo 1e-10 ms rounds to 0 ps"},
		{[]string{"cluster", "slo=400", "slo-window=1e-10"}, "-slo-window 1e-10 ms rounds to 0 ps"},
		{[]string{"cluster", "flight", "flight-window=1e-10"}, "-flight-window 1e-10 ms rounds to 0 ps"},
	}
	for _, c := range rejected {
		err := validateFlags(given(c.flags...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("flags %v: err = %v, want %q", c.flags, err, c.want)
		}
	}
	accepted := [][]string{
		{},
		{"exp", "j", "csv", "metrics", "metrics-interval", "spans", "qtrace", "progress", "benchout"},
		{"exp", "http", "http-linger"},
		{"pj"}, // deprecated no-op, still accepted
		{"trace", "spans", "metrics-interval"},
		{"cluster", "nodes", "route", "pj", "cache", "cache-ttl", "csv"},
		{"cluster", "metrics", "metrics-interval", "spans", "trace", "slo", "slo-window", "http", "http-linger"},
		{"cluster", "flight"},
		{"cluster", "flight", "flight-window", "detect", "arrival", "slo", "metrics", "trace"},
		{"stats", "csv"},
		{"cluster", "nodes=0", "pj=0", "cache=0", "slo=0", "metrics-interval=0s"},
		{"cluster", "slo=250", "slo-window=0.5", "flight", "flight-window=1e-3"},
		{"cluster", "slo=1e-9", "slo-window=1e-9", "flight", "flight-window=1e-9"}, // 1 ps
	}
	for _, flags := range accepted {
		if err := validateFlags(given(flags...)); err != nil {
			t.Errorf("flags %v: unexpected error %v", flags, err)
		}
	}
}

// TestClusterObsSmokeArtifacts validates the files `make
// cluster-obs-smoke` produced: the trace JSON must parse into
// Chrome-trace events with per-node process groups and the report must
// carry all three tables. Skipped unless CLUSTER_OBS_SMOKE_DIR points at
// the smoke output directory.
func TestClusterObsSmokeArtifacts(t *testing.T) {
	dir := os.Getenv("CLUSTER_OBS_SMOKE_DIR")
	if dir == "" {
		t.Skip("CLUSTER_OBS_SMOKE_DIR not set; run via `make cluster-obs-smoke`")
	}

	t.Run("trace-json", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil {
			t.Fatalf("trace is not valid Chrome-trace JSON: %v", err)
		}
		procs := map[float64]string{}
		var slices, spans int
		for _, e := range events {
			switch e["ph"] {
			case "M":
				if e["name"] == "process_name" {
					args, _ := e["args"].(map[string]any)
					procs[e["pid"].(float64)], _ = args["name"].(string)
				}
			case "X":
				slices++
				if cat, _ := e["cat"].(string); strings.HasPrefix(cat, "gam.") {
					spans++
				}
			}
		}
		if procs[1] != "front end" || len(procs) < 2 {
			t.Errorf("process groups = %v, want front end + nodes", procs)
		}
		if slices == 0 || spans == 0 {
			t.Errorf("trace missing event classes: %d slices, %d gam spans", slices, spans)
		}
	})

	t.Run("report-tables", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "report.txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"Cluster scatter-gather", "Straggler attribution", "SLO windows",
		} {
			if !strings.Contains(string(raw), want) {
				t.Errorf("report missing %q", want)
			}
		}
	})

	t.Run("metrics-csv", func(t *testing.T) {
		f, err := os.Open(filepath.Join(dir, "metrics.csv"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 2 {
			t.Fatal("metrics CSV has no data rows")
		}
		if got, want := strings.Join(rows[0], ","), strings.Join(metrics.CSVHeader(), ","); got != want {
			t.Errorf("metrics CSV header %q, want %q", got, want)
		}
	})
}

// TestClusterObsArtifacts is the CLI acceptance bar for cluster
// observability: with every sink on — barrier metrics, spans, the Chrome
// trace and the SLO monitor — the pinned -cluster run's summary still
// matches the unobserved golden and the artifacts are well-formed
// (straggler attribution table, SLO window table, parseable trace JSON,
// schema-true metrics CSV).
func TestClusterObsArtifacts(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.csv")
	tpath := filepath.Join(dir, "trace.json")
	var out strings.Builder
	err := runCluster(&out, clusterOptions{
		metrics:     &metrics.Options{Spans: true},
		metricsPath: mpath,
		tracePath:   tpath,
		sloMs:       250,
		sloWindowMs: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	metricsCSV, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	traceJSON, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	stdout := out.String()

	for _, want := range []string{
		"Cluster scatter-gather",
		"Straggler attribution",
		"SLO windows",
		"dominant cause",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("observed -cluster stdout missing %q:\n%s", want, stdout)
		}
	}
	// The summary table itself must match the unobserved golden: turning
	// observability on never moves a simulated number.
	golden, err := os.ReadFile(filepath.Join("testdata", "cluster_smoke.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout, string(golden)) {
		t.Errorf("observed run's summary diverged from cluster_smoke.golden:\n%s", stdout)
	}

	rows, err := csv.NewReader(strings.NewReader(string(metricsCSV))).ReadAll()
	if err != nil {
		t.Fatalf("metrics CSV unreadable: %v", err)
	}
	if len(rows) < 2 {
		t.Fatal("metrics CSV has no data rows")
	}
	if got, want := strings.Join(rows[0], ","), strings.Join(metrics.CSVHeader(), ","); got != want {
		t.Errorf("metrics CSV header %q, want %q", got, want)
	}
	sawNode, sawDomain := false, false
	for _, row := range rows[1:] {
		if strings.HasPrefix(row[3], "node") {
			sawNode = true
		}
		if strings.HasPrefix(row[3], "sim.domain") {
			sawDomain = true
		}
	}
	if !sawNode || !sawDomain {
		t.Errorf("metrics CSV missing series classes: node=%v domain=%v", sawNode, sawDomain)
	}

	var events []map[string]any
	if err := json.Unmarshal(traceJSON, &events); err != nil {
		t.Fatalf("trace is not valid Chrome-trace JSON: %v", err)
	}
	procs := 0
	for _, e := range events {
		if e["ph"] == "M" && e["name"] == "process_name" {
			procs++
		}
	}
	if procs < 2 {
		t.Errorf("trace has %d process groups, want front end + nodes", procs)
	}
}
