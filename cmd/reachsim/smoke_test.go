package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/qtrace"
)

// TestMetricsSmokeArtifacts validates the files `make metrics-smoke`
// produced: the CSV time-series schema, the Chrome-trace JSON (counters
// and GAM spans present), and the bottleneck-attribution report. Skipped
// unless METRICS_SMOKE_DIR points at the smoke output directory.
func TestMetricsSmokeArtifacts(t *testing.T) {
	dir := os.Getenv("METRICS_SMOKE_DIR")
	if dir == "" {
		t.Skip("METRICS_SMOKE_DIR not set; run via `make metrics-smoke`")
	}

	t.Run("csv-schema", func(t *testing.T) {
		f, err := os.Open(filepath.Join(dir, "metrics.csv"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		r := csv.NewReader(f)
		header, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		want := metrics.CSVHeader()
		if strings.Join(header, ",") != strings.Join(want, ",") {
			t.Fatalf("CSV header %v, want %v", header, want)
		}
		rows := 0
		lastTime := map[string]float64{} // per run: time_us must be non-decreasing
		for {
			row, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("row %d: %v", rows, err)
			}
			rows++
			ts, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatalf("row %d bad time_us %q", rows, row[2])
			}
			if prev, ok := lastTime[row[0]]; ok && ts < prev {
				t.Fatalf("row %d: time_us went backwards within run %s", rows, row[0])
			}
			lastTime[row[0]] = ts
			for _, col := range []int{5, 6, 7, 10} { // occupancy/ops/bytes/stalls
				if _, err := strconv.ParseUint(row[col], 10, 64); err != nil {
					t.Fatalf("row %d col %d not an integer: %q", rows, col, row[col])
				}
			}
		}
		if rows == 0 {
			t.Fatal("CSV has no data rows")
		}
		if len(lastTime) < 2 {
			t.Fatalf("expected multiple sampled runs, got %d", len(lastTime))
		}
	})

	t.Run("trace-json", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil {
			t.Fatalf("trace is not valid Chrome-trace JSON: %v", err)
		}
		var counters, spans, slices int
		for _, e := range events {
			switch e["ph"] {
			case "C":
				counters++
			case "X":
				slices++
				if cat, _ := e["cat"].(string); strings.HasPrefix(cat, "gam.") {
					spans++
				}
			}
		}
		if counters == 0 || spans == 0 || slices == 0 {
			t.Fatalf("trace missing event classes: %d counters, %d gam spans, %d slices",
				counters, spans, slices)
		}
	})

	t.Run("bottleneck-report", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "report.txt"))
		if err != nil {
			t.Fatal(err)
		}
		out := string(raw)
		if !strings.Contains(out, "Bottleneck attribution") {
			t.Fatal("report has no bottleneck-attribution tables")
		}
		if !strings.Contains(out, "crit_path") {
			t.Fatal("bottleneck table missing critical-path column")
		}
	})
}

// TestQTraceSmokeArtifacts validates the files `make qtrace-smoke`
// produced: the per-query interval and summary CSV schemas, the mid-run
// /progress and /debug/vars snapshots, and the tail-latency report.
// Skipped unless QTRACE_SMOKE_DIR points at the smoke output directory.
func TestQTraceSmokeArtifacts(t *testing.T) {
	dir := os.Getenv("QTRACE_SMOKE_DIR")
	if dir == "" {
		t.Skip("QTRACE_SMOKE_DIR not set; run via `make qtrace-smoke`")
	}

	readCSV := func(t *testing.T, name string) [][]string {
		t.Helper()
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
		return rows
	}

	t.Run("interval-csv-schema", func(t *testing.T) {
		rows := readCSV(t, "queries.csv")
		if got, want := strings.Join(rows[0], ","), strings.Join(qtrace.IntervalCSVHeader(), ","); got != want {
			t.Fatalf("interval header %q, want %q", got, want)
		}
		for i, row := range rows[1:] {
			start, err1 := strconv.ParseFloat(row[7], 64)
			end, err2 := strconv.ParseFloat(row[8], 64)
			dur, err3 := strconv.ParseFloat(row[9], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatalf("row %d: non-numeric interval bounds %v", i+1, row[7:10])
			}
			if end < start || dur < 0 {
				t.Fatalf("row %d: interval not ordered: start %v end %v dur %v", i+1, start, end, dur)
			}
		}
	})

	t.Run("summary-csv-schema", func(t *testing.T) {
		rows := readCSV(t, "queries_summary.csv")
		if got, want := strings.Join(rows[0], ","), strings.Join(qtrace.SummaryCSVHeader(), ","); got != want {
			t.Fatalf("summary header %q, want %q", got, want)
		}
		for i, row := range rows[1:] {
			arrival, err1 := strconv.ParseFloat(row[3], 64)
			done, err2 := strconv.ParseFloat(row[4], 64)
			lat, err3 := strconv.ParseFloat(row[5], 64)
			share, err4 := strconv.ParseFloat(row[10], 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				t.Fatalf("row %d: non-numeric fields %v", i+1, row)
			}
			if diff := done - arrival - lat; diff > 0.002 || diff < -0.002 {
				t.Fatalf("row %d: latency %v != done-arrival %v", i+1, lat, done-arrival)
			}
			if share <= 0 || share > 1 {
				t.Fatalf("row %d: dominant share %v out of (0,1]", i+1, share)
			}
			if row[7] == "" {
				t.Fatalf("row %d: no dominant phase", i+1)
			}
		}
	})

	t.Run("progress-snapshot", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "progress.json"))
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]any
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("/progress snapshot is not valid JSON: %v", err)
		}
		for _, key := range []string{"uptime_seconds", "queries_completed", "p99_ms", "runs_observed"} {
			if _, ok := snap[key]; !ok {
				t.Errorf("progress snapshot missing %q", key)
			}
		}
		// The snapshot is scraped after the sweep drains: every counter is
		// populated.
		for _, key := range []string{"queries_completed", "p99_ms", "runs_observed"} {
			if v, _ := snap[key].(float64); v <= 0 {
				t.Errorf("progress %s = %v, want > 0", key, snap[key])
			}
		}
		if res, _ := snap["resources"].([]any); len(res) == 0 {
			t.Error("progress snapshot has no per-resource busy fractions")
		}
	})

	t.Run("expvar-snapshot", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "expvar.json"))
		if err != nil {
			t.Fatal(err)
		}
		var vars map[string]any
		if err := json.Unmarshal(raw, &vars); err != nil {
			t.Fatalf("/debug/vars snapshot is not valid JSON: %v", err)
		}
		for _, key := range []string{"qtrace_queries_completed", "qtrace_p99_ms", "qtrace_resources_busy_pct"} {
			if _, ok := vars[key]; !ok {
				t.Errorf("expvar snapshot missing %q", key)
			}
		}
	})

	t.Run("tail-report", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "report.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), "Tail latency") {
			t.Fatal("report missing the tail-latency table")
		}
	})
}

// TestClusterRunGolden pins the -cluster path's stdout against the CI
// smoke golden: a pinned 4-node scatter-gather run is byte-identical
// build to build. Regenerate with
// `go run ./cmd/reachsim -cluster > cmd/reachsim/testdata/cluster_smoke.golden`
// when a modelling change moves the numbers on purpose.
func TestClusterRunGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "cluster_smoke.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := runCluster(&got, clusterOptions{}); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("-cluster output diverged from testdata/cluster_smoke.golden:\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// TestClusterRunCacheRows: with the front-end result cache enabled, the
// pinned -cluster run's summary table carries the cache accounting rows.
func TestClusterRunCacheRows(t *testing.T) {
	var out strings.Builder
	if err := runCluster(&out, clusterOptions{cache: 32}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cache hit rate %") {
		t.Fatalf("cache-on run emitted no cache rows:\n%s", out.String())
	}
}

// TestClusterSmokeArtifacts validates the files `make cluster-smoke`
// produced: the golden-diffed summary table, the inspector's /progress
// snapshot (every query observed live) and its /debug/vars counters.
// Skipped unless CLUSTER_SMOKE_DIR points at the smoke output directory.
func TestClusterSmokeArtifacts(t *testing.T) {
	dir := os.Getenv("CLUSTER_SMOKE_DIR")
	if dir == "" {
		t.Skip("CLUSTER_SMOKE_DIR not set; run via `make cluster-smoke`")
	}

	t.Run("report-golden", func(t *testing.T) {
		got, err := os.ReadFile(filepath.Join(dir, "report.txt"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "cluster_smoke.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("cluster smoke report diverged from golden:\ngot:\n%swant:\n%s", got, want)
		}
	})

	t.Run("progress-snapshot", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "progress.json"))
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]any
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("/progress snapshot is not valid JSON: %v", err)
		}
		if v, _ := snap["queries_completed"].(float64); v != clusterRunQueries {
			t.Errorf("inspector saw %v queries, want %d", snap["queries_completed"], clusterRunQueries)
		}
		if v, _ := snap["p99_ms"].(float64); v <= 0 {
			t.Errorf("progress p99_ms = %v, want > 0", snap["p99_ms"])
		}
		if v, _ := snap["runs_observed"].(float64); v != 1 {
			t.Errorf("inspector observed %v runs, want 1", snap["runs_observed"])
		}
		if res, _ := snap["resources"].([]any); len(res) == 0 {
			t.Error("progress snapshot has no per-resource busy fractions")
		}
	})

	t.Run("expvar-snapshot", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "expvar.json"))
		if err != nil {
			t.Fatal(err)
		}
		var vars map[string]any
		if err := json.Unmarshal(raw, &vars); err != nil {
			t.Fatalf("/debug/vars snapshot is not valid JSON: %v", err)
		}
		for _, key := range []string{"qtrace_queries_completed", "qtrace_p99_ms"} {
			if _, ok := vars[key]; !ok {
				t.Errorf("expvar snapshot missing %q", key)
			}
		}
	})
}
