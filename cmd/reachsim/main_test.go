package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/inspect"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/workload"
)

func TestRunAllExperimentIDs(t *testing.T) {
	cfg := config.Default()
	m := workload.DefaultModel()
	for _, id := range experimentIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := run(id, cfg, m)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", id)
			}
			var sb strings.Builder
			for _, tb := range tables {
				if err := tb.Render(&sb); err != nil {
					t.Fatal(err)
				}
				if err := tb.CSV(&sb); err != nil {
					t.Fatal(err)
				}
			}
			if sb.Len() == 0 {
				t.Fatalf("%s rendered empty output", id)
			}
		})
	}
}

// TestListOutputGolden pins the -list contract: the `-exp all` ids
// sorted, one per line, then the extra (runnable, not in "all") ids
// grouped under a labeled section. Scripts parse this.
func TestListOutputGolden(t *testing.T) {
	const want = `ablation-gam
ablation-granularity
ablation-mapping
ablation-nsbuffer
fig10
fig11
fig12
fig13
fig8
fig9
loadsweep
motivation
multitenant
recallsweep
reverselookup
skew
table1
table2
table3
table4

extra (runnable, excluded from -exp all):
cachesweep
clustersweep
taillatency
`
	if got := listOutput(); got != want {
		t.Errorf("-list output changed:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestExtraIDsRunnable: ids outside "all" still run through the same
// switch; the extras must stay out of experimentIDs so `-exp all` output
// is unchanged.
func TestExtraIDsRunnable(t *testing.T) {
	for _, extra := range extraIDs {
		for _, id := range experimentIDs {
			if id == extra {
				t.Fatalf("%s joined -exp all; it must stay an extra id", extra)
			}
		}
		tables, err := run(extra, config.Default(), workload.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", extra)
		}
	}
}

func TestQTraceSummaryPath(t *testing.T) {
	for in, want := range map[string]string{
		"q.csv":      "q_summary.csv",
		"out/q.csv":  "out/q_summary.csv",
		"noext":      "noext_summary.csv",
		"a.dir/file": "a.dir/file_summary.csv",
	} {
		if got := qtraceSummaryPath(in); got != want {
			t.Errorf("qtraceSummaryPath(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRunAllQTraceInspector drives runAll the way `-exp taillatency
// -qtrace q.csv -http :0` does: per-query CSVs land with the pinned
// schemas, the inspector's live counters see every completed query, and
// each traced run reports its resource utilization.
func TestRunAllQTraceInspector(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/queries.csv"
	insp := inspect.New()
	if err := insp.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer insp.Close()
	o := runAllOptions{
		jobs:       4,
		qtrace:     &qtrace.Options{Observers: []qtrace.Observer{insp}},
		qtracePath: path,
		inspector:  insp,
	}
	var out strings.Builder
	if err := runAll(&out, []string{"taillatency"}, config.Default(), workload.DefaultModel(), o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Tail latency") {
		t.Error("taillatency table not emitted")
	}

	readCSV := func(p string) [][]string {
		t.Helper()
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	ivs := readCSV(path)
	if got, want := strings.Join(ivs[0], ","), strings.Join(qtrace.IntervalCSVHeader(), ","); got != want {
		t.Errorf("interval CSV header %q, want %q", got, want)
	}
	sums := readCSV(qtraceSummaryPath(path))
	if got, want := strings.Join(sums[0], ","), strings.Join(qtrace.SummaryCSVHeader(), ","); got != want {
		t.Errorf("summary CSV header %q, want %q", got, want)
	}
	// 4 rates x 2 mappings x DefaultTailBatches completed queries.
	wantQueries := 8 * 96
	if len(sums)-1 != wantQueries {
		t.Errorf("summary rows = %d, want %d", len(sums)-1, wantQueries)
	}
	if len(ivs)-1 <= wantQueries {
		t.Errorf("interval rows = %d; expected several per query", len(ivs)-1)
	}
	snap := insp.Snapshot()
	if snap.QueriesCompleted != uint64(wantQueries) {
		t.Errorf("inspector saw %d queries, want %d (live observer not wired)",
			snap.QueriesCompleted, wantQueries)
	}
	if snap.P99Ms <= snap.P50Ms || snap.P50Ms <= 0 {
		t.Errorf("inspector quantiles implausible: p50=%v p99=%v", snap.P50Ms, snap.P99Ms)
	}
	if snap.RunsObserved != 8 {
		t.Errorf("inspector observed %d runs, want 8", snap.RunsObserved)
	}
	if len(snap.Resources) == 0 {
		t.Error("inspector has no per-resource busy fractions")
	}
}

// TestWriteQTraceJSONL: a .jsonl path switches to one tagged stream.
func TestWriteQTraceJSONL(t *testing.T) {
	path := t.TempDir() + "/q.jsonl"
	o := runAllOptions{qtrace: &qtrace.Options{}, qtracePath: path}
	var out strings.Builder
	if err := runAll(&out, []string{"fig12"}, config.Default(), workload.DefaultModel(), o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var intervals, queries int
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct{ Type string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		switch rec.Type {
		case "interval":
			intervals++
		case "query":
			queries++
		default:
			t.Fatalf("unknown record type %q", rec.Type)
		}
	}
	if intervals == 0 || queries == 0 {
		t.Fatalf("JSONL dump missing records: %d intervals, %d queries", intervals, queries)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := run("nonsense", config.Default(), workload.DefaultModel()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestWriteFileReportsFlushError: bytes that fail only when the buffer
// reaches the device still fail writeFile, instead of the artifact being
// reported as written.
func TestWriteFileReportsFlushError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	err := writeFile("/dev/full", func(w io.Writer) error {
		_, err := io.WriteString(w, "artifact")
		return err
	})
	if err == nil {
		t.Fatal("writing to a full device reported success")
	}
}

func TestWriteTrace(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	if err := writeTrace(path, nil, ""); err != nil {
		t.Fatal(err)
	}
}

// TestWriteTraceWithMetrics exercises the instrumented trace path: counter
// lanes and GAM spans merged into the timeline, plus the raw CSV dump.
func TestWriteTraceWithMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath := dir + "/trace.json"
	csvPath := dir + "/metrics.csv"
	if err := writeTrace(tracePath, &metrics.Options{Spans: true}, csvPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not valid Chrome-trace JSON: %v", err)
	}
	var counters, spans int
	for _, e := range events {
		switch e["ph"] {
		case "C":
			counters++
		case "X":
			if cat, _ := e["cat"].(string); strings.HasPrefix(cat, "gam.") {
				spans++
			}
		}
	}
	if counters == 0 {
		t.Error("no counter events merged into trace")
	}
	if spans == 0 {
		t.Error("no GAM spans merged into trace")
	}
	if _, err := os.Stat(csvPath); err != nil {
		t.Errorf("metrics CSV not written: %v", err)
	}
}
