package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRunAllExperimentIDs(t *testing.T) {
	m := workload.DefaultModel()
	for _, id := range tableIDs(true) {
		t.Run(id, func(t *testing.T) {
			tb, err := run(id, m)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			var sb strings.Builder
			if err := tb.Render(&sb); err != nil {
				t.Fatal(err)
			}
			if err := tb.CSV(&sb); err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s rendered no rows", id)
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

// TestExtraIDsRunnable: the ids outside "all" run through the same table,
// each under its headline note, and stay extras so `-exp all` output is
// unchanged.
func TestExtraIDsRunnable(t *testing.T) {
	headlines := map[string]string{
		"cachesweep":   "cache-off p99",
		"clustersweep": "hash p99",
		"taillatency":  "p99/p50",
	}
	for _, id := range tableIDs(false) {
		want, ok := headlines[id]
		if !ok {
			t.Errorf("extra %s has no headline pinned here", id)
			continue
		}
		delete(headlines, id)
		tb, err := run(id, workload.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(strings.Join(tb.Notes, "\n"), want) {
			t.Errorf("%s notes %q lack the headline %q", id, tb.Notes, want)
		}
	}
	for id := range headlines {
		t.Errorf("%s is no longer an extra id", id)
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

// TestRunAllQTrace drives runAll the way `-exp taillatency -qtrace q.csv`
// does: per-query CSVs land with the pinned schemas and hold one summary
// row per completed query.
func TestRunAllQTrace(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/queries.csv"
	o := runAllOptions{jobs: 4, qtracePath: path}
	var out strings.Builder
	if err := runAll(&out, io.Discard, []string{"taillatency"}, workload.DefaultModel(), o); err != nil {
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
}

// TestRunAllSweepMetrics drives runAll the way `-exp clustersweep
// -metrics m.csv -metrics-interval 100ms` and its cachesweep twin do:
// one labelled run per sweep cell in declaration order, each with
// per-node and per-domain series, a CSV identical at -j 1 and -j 4, and
// stdout identical to a metrics-off run, since barrier samplers schedule
// no events.
func TestRunAllSweepMetrics(t *testing.T) {
	ids := []string{"clustersweep", "cachesweep"}
	m := workload.DefaultModel()
	var plain strings.Builder
	if err := runAll(&plain, io.Discard, ids, m, runAllOptions{}); err != nil {
		t.Fatal(err)
	}
	sampledAt := func(jobs int) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "m.csv")
		var out strings.Builder
		o := runAllOptions{
			jobs:        jobs,
			metrics:     &metrics.Options{Interval: 100 * sim.Millisecond},
			metricsPath: path,
		}
		if err := runAll(&out, io.Discard, ids, m, o); err != nil {
			t.Fatal(err)
		}
		if out.String() != plain.String() {
			t.Errorf("-j %d: stdout with -metrics differs from the metrics-off run", jobs)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	raw := sampledAt(1)
	if !bytes.Equal(raw, sampledAt(4)) {
		t.Fatal("metrics CSV differs between -j 1 and -j 4")
	}

	var want []string
	for _, n := range experiments.DefaultClusterNodeCounts() {
		for _, pol := range config.RoutePolicies() {
			for _, rate := range experiments.DefaultClusterRates() {
				want = append(want, fmt.Sprintf("clustersweep/clustersweep %dn %s %.0f q/s", n, pol, rate))
			}
		}
	}
	for _, e := range experiments.DefaultCacheEntries() {
		ttls := experiments.DefaultCacheTTLsMS()
		if e == 0 {
			ttls = ttls[:1]
		}
		for _, ttl := range ttls {
			for _, skew := range experiments.DefaultCacheSkews() {
				for _, rate := range experiments.DefaultCacheRates() {
					if e == 0 {
						want = append(want, fmt.Sprintf("cachesweep/cachesweep off s%.1f %.0f q/s", skew, rate))
					} else {
						want = append(want, fmt.Sprintf("cachesweep/cachesweep %de %.0fms s%.1f %.0f q/s", e, ttl, skew, rate))
					}
				}
			}
		}
	}
	rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	nodes, domains := map[string]bool{}, map[string]bool{}
	for _, row := range rows[1:] {
		if len(got) == 0 || got[len(got)-1] != row[0] {
			got = append(got, row[0])
		}
		nodes[row[0]] = nodes[row[0]] || strings.HasPrefix(row[3], "node")
		domains[row[0]] = domains[row[0]] || strings.HasPrefix(row[3], "sim.domain")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("sampled runs:\n%s\nwant one per cell in declaration order:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, label := range got {
		if !nodes[label] || !domains[label] {
			t.Errorf("%s: node series %v, domain series %v", label, nodes[label], domains[label])
		}
	}
	// The clustersweep half is the file `reachsim -exp clustersweep
	// -metrics m.csv -metrics-interval 100ms` writes: 51,842 lines.
	half := raw[:bytes.Index(raw, []byte("\ncachesweep/"))+1]
	const clusterSHA = "cdebd20729b1023f9f0490e090468149628fbb31ea1ad3b9b99ef1b73f8dacf6"
	if sum := fmt.Sprintf("%x", sha256.Sum256(half)); sum != clusterSHA {
		t.Errorf("clustersweep CSV sha256 %s, want %s", sum, clusterSHA)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := run("nonsense", workload.DefaultModel()); err == nil {
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
	if err := writeTrace(io.Discard, io.Discard, path, nil, ""); err != nil {
		t.Fatal(err)
	}
}
