package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/qtrace"
)

// cliRow is one reachsim command line and everything it must produce. In
// args and stderr, DIR stands for the row's fresh artifact directory.
type cliRow struct {
	name string
	args []string
	code int
	// stdout is the sha256 of stdout; golden instead names the testdata
	// file stdout must equal.
	stdout, golden string
	// files maps every file the run leaves under DIR to its sha256, ""
	// where the bytes are not pinned.
	files map[string]string
	// stderr is every stderr line; usage marks a row whose lines are
	// followed by the flag usage.
	stderr []string
	usage  bool
	// check runs the row's schema validators on the first run.
	check func(t *testing.T, dir string, stdout []byte)
	// jobs runs an experiment row at -j 1 and -j 4 rather than twice as
	// given; once runs the row a single time.
	jobs, once bool
}

const emptySHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

// Digests shared by rows that write the same bytes.
const (
	observedStdout = "8cd63bf18cb6ba28001610f01ff5b66050357ddeec1d335bbda13691cf2918e5"
	observedCSV    = "6acfc6364143b09879ac6cf896fb27f8e491aaef27a80595cf9b457bb1596671"
	observedTrace  = "8ac222e1649c74930d7204fc69c68fc16df5a13a52cd368497fc62c10768fc4f"
	flashStdout    = "5fd0c1db0f3d4d778b4ffcc8abee3beed74311c470d4954992e53934cfa744e2"
	taillatStdout  = "85d6d906c0236d2456f52936c162eda8371c5ca06d3fa3946734393315e0c960"
	taillatCSV     = "614b95e8100bcfef9f253d8edd631d3b88d45b73bb42d7b982f86ae66dad23ee"
	taillatSummary = "962f3e8fc8ec02a8dddee41c1647bf490ac5890092cd4712036eb26c9e56ce93"
)

// observedBundle is the one flight bundle of the cluster-observed run.
func observedBundle(dir string) map[string]string {
	b := dir + "/bundle-3680510us/"
	return map[string]string{
		b + "verdict.json":   "f2813ec634435ff4f4d61f563ca968b9c8e4258f62d9907efe7f30fe817cd6f9",
		b + "trace.json":     "ba6ebeafcb67f518767234acf163510402c039579388a12f4c69210b3896a48d",
		b + "stragglers.txt": "7d3dafb133d861c7588a36a82f83edcd830d0d3712b2458453c7087118915e23",
		b + "domains.json":   "35dda06dc6519fcb8b8e76a8b380a91f093d383dc78e6323c8179f2dd64a4e10",
		b + "state.json":     "bcae0cfe8bd86888e5cffaa6b5ab8d9a54306c64a8b1fd7335adf8176d45ad11",
	}
}

// with returns files plus the given name/sha256 pairs.
func with(files map[string]string, pairs ...string) map[string]string {
	for i := 0; i < len(pairs); i += 2 {
		files[pairs[i]] = pairs[i+1]
	}
	return files
}

// flashBase is the bench's bare flash-crowd run; its sink groups add
// one observability sink each.
var flashBase = []string{"-cluster", "-pj", "1", "-arrival", "flash"}

// cliRows is every former smoke-recipe command line and every reachsim
// argument list of the benchmark (bench/workload.go), plus the exit-code
// contract.
var cliRows = []cliRow{
	{
		name: "exp-all", args: []string{"-exp", "all"}, jobs: true,
		stdout: "85fa3f9e1f4f7320434e574d0bd0bdcb494dfa9a5671128b0f6d4a81f9dfaf28",
	},
	{
		name: "list", args: []string{"-list"},
		stdout: "7c79e2c0e43efe1fd91138cf83301a1e031b915417ac65133d5d3777d99e8e41",
	},
	{
		// A boolean flag set false is the flag left out.
		name: "list-cluster-false", args: []string{"-list", "-cluster=false"},
		stdout: "7c79e2c0e43efe1fd91138cf83301a1e031b915417ac65133d5d3777d99e8e41",
	},
	{
		name: "stats", args: []string{"-stats"},
		stdout: "e586026b3247451dacf9f7327fb1c28359fe36114203368793845d91c72e6ae9",
	},
	{
		name: "cluster", args: []string{"-cluster"}, golden: "cluster_smoke.golden",
		stderr: []string{"cluster run complete: 32 queries"},
	},
	{
		// Every sink on the pinned run: the summary still leads with the
		// unobserved golden.
		name: "cluster-sinks",
		args: []string{"-cluster", "-metrics", "DIR/metrics.csv", "-spans", "-trace", "DIR/trace.json",
			"-slo", "250", "-slo-window", "100"},
		stdout: "68f931c64d5b545be87185af89f442dd78dd015638fe45ac464a8d634443ccc4",
		files: map[string]string{
			"metrics.csv": "6a1b69071dfd59acb8395d1758c0a1775cf42447689ad86af515e89ad4f2428e",
			"trace.json":  "703e435a00de6b31ac2714707692f3cec5597c5b6498f22b2c4274e63c2cceb3",
		},
		stderr: []string{
			"cluster metrics written to DIR/metrics.csv",
			"trace written to DIR/trace.json (open in chrome://tracing or Perfetto)",
			"cluster run complete: 32 queries",
		},
		check: func(t *testing.T, dir string, stdout []byte) {
			golden, err := os.ReadFile(filepath.Join("testdata", "cluster_smoke.golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(stdout, golden) {
				t.Error("observed summary diverged from cluster_smoke.golden")
			}
			reportHas(t, stdout, "Straggler attribution", "dominant cause", "SLO windows")
			checkClusterCSV(t, filepath.Join(dir, "metrics.csv"))
			checkTrace(t, filepath.Join(dir, "trace.json"), traceWant{processes: true})
		},
	},
	{
		name: "cluster-observed",
		args: []string{"-cluster", "-pj", "1", "-slo", "400", "-arrival", "flash",
			"-flight", "DIR/flight", "-detect",
			"-metrics", "DIR/m.csv", "-spans",
			"-trace", "DIR/t.json"},
		stdout: observedStdout,
		files:  with(observedBundle("flight"), "m.csv", observedCSV, "t.json", observedTrace),
		stderr: []string{
			"cluster metrics written to DIR/m.csv",
			"trace written to DIR/t.json (open in chrome://tracing or Perfetto)",
			"flight: slo-burn detected at 3680.511 ms; bundle written to DIR/flight/bundle-3680510us",
			"cluster run complete: 96 queries",
		},
		check: checkObserved,
	},
	{
		// The same run without the no-op -pj 1: its bytes equal the row
		// above's, whose validators they pass.
		name: "cluster-obs-smoke",
		args: []string{"-cluster", "-slo", "400", "-arrival", "flash",
			"-flight", "DIR/bundles", "-detect", "-metrics", "DIR/metrics.csv",
			"-spans", "-trace", "DIR/trace.json"},
		stdout: observedStdout,
		files:  with(observedBundle("bundles"), "metrics.csv", observedCSV, "trace.json", observedTrace),
		stderr: []string{
			"cluster metrics written to DIR/metrics.csv",
			"trace written to DIR/trace.json (open in chrome://tracing or Perfetto)",
			"flight: slo-burn detected at 3680.511 ms; bundle written to DIR/bundles/bundle-3680510us",
			"cluster run complete: 96 queries",
		},
	},
	{
		name: "flash", args: flashBase, once: true, stdout: flashStdout,
		stderr: []string{"cluster run complete: 96 queries"},
	},
	{
		name: "flash-metrics", args: slices.Concat(flashBase, []string{"-metrics", "DIR/m.csv", "-spans"}), once: true,
		stdout: "681538052755d88be245284aa2870953180099f7c6e49f63f89657d6c61109a1",
		files:  map[string]string{"m.csv": observedCSV},
		stderr: []string{"cluster metrics written to DIR/m.csv", "cluster run complete: 96 queries"},
	},
	{
		name: "flash-trace", args: slices.Concat(flashBase, []string{"-trace", "DIR/t.json"}), once: true,
		stdout: flashStdout,
		files:  map[string]string{"t.json": "d8a2684fb823eb82de0d5f6e2661b57bc0863fa65460a08eb5c39b9ddf58a156"},
		stderr: []string{"trace written to DIR/t.json (open in chrome://tracing or Perfetto)", "cluster run complete: 96 queries"},
	},
	{
		name: "flash-slo", args: slices.Concat(flashBase, []string{"-slo", "400"}), once: true,
		stdout: "f21393fa49e9ed036bca306c53b11e8fb514f14f47e14f872c171355cc30c83d",
		stderr: []string{"cluster run complete: 96 queries"},
	},
	{
		// A window far narrower than the run: the table lists every one
		// of the 96 populated windows, one per completed query.
		name: "flash-slo-fine", args: slices.Concat(flashBase, []string{"-slo", "400", "-slo-window", "0.5"}), once: true,
		stdout: "5731b61c766d1c12cde500720f22b8891fed2c420816256b2e5fa4a17d9742a0",
		stderr: []string{"cluster run complete: 96 queries"},
		check: func(t *testing.T, _ string, stdout []byte) {
			_, table, _ := strings.Cut(string(stdout), "SLO windows")
			n := 0
			for _, line := range strings.Split(table, "\n") {
				if f := strings.Fields(line); len(f) == 7 && f[1] == "1" {
					n++
				}
			}
			if n != 96 {
				t.Errorf("SLO table lists %d one-query windows, want 96", n)
			}
			reportHas(t, stdout, "96 queries, 42 breaches")
		},
	},
	{
		name: "flash-flight", args: slices.Concat(flashBase, []string{"-flight", "DIR/flight", "-detect"}), once: true,
		stdout: flashStdout,
		files: map[string]string{
			"flight/bundle-947328us/verdict.json":   "e936e041b9f33964d449041edb7cf806f6329c725d10104e6a6e2083974be069",
			"flight/bundle-947328us/trace.json":     "677e444e48a4f1189a6baabdecff121652cebc6b2903ff0557900b7ad09e20c4",
			"flight/bundle-947328us/stragglers.txt": "b16b435428c0cbe9223cbfad3a6b8b806ed7f59c3fe7d848f20d720929a62908",
			"flight/bundle-947328us/domains.json":   "b415f7a85b7e31d5f6b6e333f9a91d7e69018ed6e6de92452099686d3aa81fc4",
			"flight/bundle-947328us/state.json":     "bcae0cfe8bd86888e5cffaa6b5ab8d9a54306c64a8b1fd7335adf8176d45ad11",
		},
		stderr: []string{
			"flight: slo-burn detected at 947.328 ms; bundle written to DIR/flight/bundle-947328us",
			"cluster run complete: 96 queries",
		},
	},
	{
		name: "fig9-metrics", args: []string{"-exp", "fig9", "-metrics", "DIR/metrics.csv", "-metrics-interval", "200us"}, jobs: true,
		stdout: "7d8987f843debef85a1af38b2b1b77ac106ab0a656c983212fa2694e8bbe547e",
		files:  map[string]string{"metrics.csv": "188230163135c1a096c1a15400c8658b2217dbb37a8288edff399d7e623948fa"},
		stderr: []string{"metrics for 11 runs written to DIR/metrics.csv"},
		check: func(t *testing.T, dir string, stdout []byte) {
			if runs, _ := checkMetricsCSV(t, filepath.Join(dir, "metrics.csv")); len(runs) < 2 {
				t.Errorf("metrics CSV holds %d runs, want several", len(runs))
			}
			reportHas(t, stdout, "Bottleneck attribution", "crit_path")
		},
	},
	{
		name: "trace-spans", args: []string{"-trace", "DIR/trace.json", "-spans", "-metrics-interval", "500us"},
		stdout: emptySHA,
		files:  map[string]string{"trace.json": "84222f72bdea6c105bb3c79239319467412560a055e12ef131950de2d23da7f3"},
		stderr: []string{"trace written to DIR/trace.json (open in chrome://tracing or Perfetto)"},
		check: func(t *testing.T, dir string, _ []byte) {
			checkTrace(t, filepath.Join(dir, "trace.json"), traceWant{counters: true, spans: true})
		},
	},
	{
		name: "trace-metrics", args: []string{"-trace", "DIR/trace.json", "-spans", "-metrics", "DIR/metrics.csv", "-metrics-interval", "500us"},
		stdout: "b2c0b306de94c50442e50a4495a5dcfef208f3505fd23f9aaa2b337eea20294c",
		files: map[string]string{
			"metrics.csv": "94438f594767525f23e8a3078051a9214ad2dde7236ac39d9b846c527af34551",
			"trace.json":  "84222f72bdea6c105bb3c79239319467412560a055e12ef131950de2d23da7f3",
		},
		stderr: []string{
			"metrics for 1 runs written to DIR/metrics.csv",
			"trace written to DIR/trace.json (open in chrome://tracing or Perfetto)",
		},
		check: func(t *testing.T, dir string, stdout []byte) {
			checkMetricsCSV(t, filepath.Join(dir, "metrics.csv"))
			checkTrace(t, filepath.Join(dir, "trace.json"), traceWant{counters: true, spans: true})
			reportHas(t, stdout, "Bottleneck attribution — trace/pipeline")
		},
	},
	{
		name: "taillatency-qtrace", args: []string{"-exp", "taillatency", "-qtrace", "DIR/q.csv"}, jobs: true,
		stdout: taillatStdout,
		files:  map[string]string{"q.csv": taillatCSV, "q_summary.csv": taillatSummary},
		stderr: []string{"per-query traces for 8 runs written to DIR/q.csv and DIR/q_summary.csv"},
		check: func(t *testing.T, dir string, stdout []byte) {
			checkQTraceCSVs(t, filepath.Join(dir, "q.csv"), filepath.Join(dir, "q_summary.csv"))
			reportHas(t, stdout, "Tail latency")
		},
	},
	{
		// Profiles survive a failed run.
		name: "profiles-on-failure", args: []string{"-cpuprofile", "DIR/cpu.pb", "-memprofile", "DIR/mem.pb", "-exp", "bogus"},
		code: 1, once: true, stdout: emptySHA,
		files:  map[string]string{"cpu.pb": "", "mem.pb": ""},
		stderr: []string{`reachsim: unknown experiment "bogus" (use -list)`},
		check: func(t *testing.T, dir string, _ []byte) {
			for _, f := range []string{"cpu.pb", "mem.pb"} {
				raw, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil || len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
					t.Errorf("%s is not a gzip profile (%d bytes, err %v)", f, len(raw), err)
				}
			}
		},
	},
	{
		name: "rejected-flag", args: []string{"-stats", "-exp", "fig9"}, code: 1, stdout: emptySHA,
		stderr: []string{"reachsim: -exp does nothing with -stats; drop one of them"},
	},
	{
		// A TTL below 1 ps would expire every cached result at its first
		// lookup.
		name: "sub-picosecond-cache-ttl", args: []string{"-cluster", "-cache", "32", "-cache-ttl", "1e-10"}, code: 1, stdout: emptySHA,
		stderr: []string{"reachsim: cluster: cache_ttl_ms 1e-10 rounds to 0 ps of simulated time"},
	},
	{
		name: "undefined-flag", args: []string{"-http-linger", "1s"}, code: 2, stdout: emptySHA,
		stderr: []string{"flag provided but not defined: -http-linger"}, usage: true,
	},
	{
		// Every number a live HTTP view could serve is in a run's tables
		// and artifacts, and a run ends before a client could connect.
		name: "http-flag-gone", args: []string{"-http", "127.0.0.1:0"}, code: 2, stdout: emptySHA,
		stderr: []string{"flag provided but not defined: -http"}, usage: true,
	},
	{
		// -exp all finishes in under a second, so it has no per-run
		// progress counter to print.
		name: "progress-flag-gone", args: []string{"-exp", "all", "-progress"}, code: 2, stdout: emptySHA,
		stderr: []string{"flag provided but not defined: -progress"}, usage: true,
	},
	{
		// Every simulation runs config.Default(), so a system config file
		// would reach Table II alone; reachcfg -check validates one.
		name: "config-flag-gone", args: []string{"-config", "x.json"}, code: 2, stdout: emptySHA,
		stderr: []string{"flag provided but not defined: -config"}, usage: true,
	},
	{
		name: "help", args: []string{"-h"}, stdout: emptySHA, usage: true,
	},
}

// TestCLI drives reachsim's entry point through every row: exit code,
// stdout, every artifact and every stderr line are pinned, the row's
// schema validators pass, and a second run in a fresh directory — at
// -j 4 after -j 1 for an experiment row — reproduces every byte.
func TestCLI(t *testing.T) {
	for _, row := range cliRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			argvs := [][]string{row.args, row.args}
			if row.jobs {
				argvs = [][]string{slices.Concat(row.args, []string{"-j", "1"}), slices.Concat(row.args, []string{"-j", "4"})}
			}
			if row.once {
				argvs = argvs[:1]
			}
			var first map[string]string
			for i, argv := range argvs {
				dir, stdout, digests := row.run(t, argv)
				if i == 0 {
					first = digests
					if row.check != nil {
						row.check(t, dir, stdout)
					}
				} else if !reflect.DeepEqual(digests, first) {
					t.Errorf("%v did not reproduce %v:\n got %v\nwant %v", argv, argvs[0], digests, first)
				}
			}
		})
	}
}

// run executes argv in a fresh directory, checks the row's pins and
// returns the directory, stdout and the sha256 of stdout and of every
// file left, by path.
func (row cliRow) run(t *testing.T, argv []string) (string, []byte, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	args := make([]string, len(argv))
	for i, a := range argv {
		args[i] = strings.ReplaceAll(a, "DIR", dir)
	}
	var stdout, stderr bytes.Buffer
	if code := cli(args, &stdout, &stderr); code != row.code {
		t.Fatalf("%v exited %d, want %d; stderr:\n%s", argv, code, row.code, stderr.String())
	}

	sum := sha256.Sum256(stdout.Bytes())
	digests := map[string]string{"stdout": hex.EncodeToString(sum[:])}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		digests[filepath.ToSlash(rel)] = hex.EncodeToString(h.Sum(nil))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if row.golden != "" {
		want, err := os.ReadFile(filepath.Join("testdata", row.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v stdout diverged from testdata/%s:\n%s", argv, row.golden, stdout.String())
		}
	} else if digests["stdout"] != row.stdout {
		t.Errorf("%v stdout sha256 %s, want %s", argv, digests["stdout"], row.stdout)
	}
	for name, got := range digests {
		want, ok := row.files[name]
		switch {
		case name == "stdout":
		case !ok:
			t.Errorf("%v left an unexpected file %s", argv, name)
		case want != "" && got != want:
			t.Errorf("%v %s sha256 %s, want %s", argv, name, got, want)
		}
	}
	for name := range row.files {
		if _, ok := digests[name]; !ok {
			t.Errorf("%v did not write %s", argv, name)
		}
	}

	text := strings.ReplaceAll(stderr.String(), dir, "DIR")
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if text == "" {
		lines = nil
	}
	n := len(row.stderr)
	if row.usage {
		if len(lines) <= n || lines[n] != "Usage of reachsim:" {
			t.Errorf("%v stderr does not print the usage after line %d:\n%s", argv, n, text)
			return dir, stdout.Bytes(), digests
		}
		lines = lines[:n]
	}
	if !slices.Equal(lines, row.stderr) {
		t.Errorf("%v stderr:\n%s\nwant:\n%s", argv, strings.Join(lines, "\n"), strings.Join(row.stderr, "\n"))
	}
	return dir, stdout.Bytes(), digests
}

// reportHas checks that the report carries each of want.
func reportHas(t *testing.T, report []byte, want ...string) {
	t.Helper()
	for _, w := range want {
		if !bytes.Contains(report, []byte(w)) {
			t.Errorf("report missing %q", w)
		}
	}
}

// checkMetricsCSV validates a -metrics dump's schema: the pinned header,
// integer occupancy, ops, bytes and stall columns, and time_us never
// decreasing within a run. It returns the run labels in order and the
// set of series.
func checkMetricsCSV(t *testing.T, path string) ([]string, map[string]bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(header, metrics.CSVHeader()) {
		t.Fatalf("CSV header %v, want %v", header, metrics.CSVHeader())
	}
	var runs []string
	series := map[string]bool{}
	lastTime := map[string]float64{}
	for n := 1; ; n++ {
		row, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("row %d: %v", n, err)
		}
		ts, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("row %d bad time_us %q", n, row[2])
		}
		prev, ok := lastTime[row[0]]
		if ok && ts < prev {
			t.Fatalf("row %d: time_us went backwards within run %s", n, row[0])
		}
		if !ok {
			runs = append(runs, row[0])
		}
		lastTime[row[0]] = ts
		series[row[3]] = true
		for _, col := range []int{5, 6, 7, 10} {
			if _, err := strconv.ParseUint(row[col], 10, 64); err != nil {
				t.Fatalf("row %d col %d not an integer: %q", n, col, row[col])
			}
		}
	}
	if len(runs) == 0 {
		t.Fatal("CSV has no data rows")
	}
	return runs, series
}

// checkClusterCSV validates a cluster -metrics dump: the schema, plus
// per-node and per-domain series.
func checkClusterCSV(t *testing.T, path string) {
	t.Helper()
	_, series := checkMetricsCSV(t, path)
	var nodes, domains bool
	for s := range series {
		nodes = nodes || strings.HasPrefix(s, "node")
		domains = domains || strings.HasPrefix(s, "sim.domain")
	}
	if !nodes || !domains {
		t.Errorf("cluster metrics CSV series: node %v, sim.domain %v", nodes, domains)
	}
}

// traceWant lists the event classes a Chrome trace must carry beyond
// its duration slices.
type traceWant struct {
	counters, spans, processes bool
}

// checkTrace validates a Chrome trace: parseable JSON with duration
// slices, and the wanted counters, GAM decision spans and front-end plus
// per-node process groups.
func checkTrace(t *testing.T, path string, want traceWant) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The traces run to tens of MB, so events are decoded one at a time.
	dec := json.NewDecoder(bufio.NewReader(f))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		t.Fatalf("%s is not a Chrome-trace event array: %v %v", path, tok, err)
	}
	procs := map[int]any{}
	var counters, durations, spans int
	for dec.More() {
		var e struct {
			Ph, Cat, Name string
			Pid           int
			Args          struct{ Name any }
		}
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("%s is not valid Chrome-trace JSON: %v", path, err)
		}
		switch e.Ph {
		case "C":
			counters++
		case "X":
			durations++
			if strings.HasPrefix(e.Cat, "gam.") {
				spans++
			}
		case "M":
			if e.Name == "process_name" {
				procs[e.Pid] = e.Args.Name
			}
		}
	}
	if _, err := dec.Token(); err != nil {
		t.Fatalf("%s: unterminated event array: %v", path, err)
	}
	if durations == 0 || want.counters && counters == 0 || want.spans && spans == 0 {
		t.Errorf("%s: %d slices, %d counters, %d gam spans", path, durations, counters, spans)
	}
	if want.processes && (procs[1] != "front end" || len(procs) < 2) {
		t.Errorf("%s process groups = %v, want front end + nodes", path, procs)
	}
}

// checkObserved validates the cluster-observed run: one queue-dominated
// slo-burn bundle, the straggler and SLO tables in the report, and a
// schema-true metrics CSV and trace.
func checkObserved(t *testing.T, dir string, stdout []byte) {
	reportHas(t, stdout, "Cluster scatter-gather", "Straggler attribution", "SLO windows")
	bundle := filepath.Join(dir, "flight", "bundle-3680510us")
	verdict, err := os.ReadFile(filepath.Join(bundle, "verdict.json"))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Detector      string `json:"detector"`
		DominantCause string `json:"dominant_cause"`
	}
	if err := json.Unmarshal(verdict, &v); err != nil {
		t.Fatal(err)
	}
	if v.Detector != "slo-burn" || v.DominantCause != "queue" {
		t.Errorf("verdict %+v, want a queue-dominated slo-burn", v)
	}
	stragglers, err := os.ReadFile(filepath.Join(bundle, "stragglers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	reportHas(t, stragglers, "overall dominant cause queue")
	checkClusterCSV(t, filepath.Join(dir, "m.csv"))
	checkTrace(t, filepath.Join(dir, "t.json"), traceWant{spans: true, processes: true})
}

// checkQTraceCSVs validates the per-query dumps: the pinned headers,
// ordered intervals, and per-query latencies that equal done − arrival
// with a dominant phase holding a share in (0, 1].
func checkQTraceCSVs(t *testing.T, intervals, summary string) {
	t.Helper()
	read := func(path string, header []string) [][]string {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 2 || !slices.Equal(rows[0], header) {
			t.Fatalf("%s: %d rows, header %v, want %v", path, len(rows), rows[0], header)
		}
		return rows[1:]
	}
	num := func(s string) float64 {
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("non-numeric field %q", s)
		}
		return x
	}
	for i, row := range read(intervals, qtrace.IntervalCSVHeader()) {
		if start, end, dur := num(row[7]), num(row[8]), num(row[9]); end < start || dur < 0 {
			t.Fatalf("interval row %d not ordered: start %v end %v dur %v", i+1, start, end, dur)
		}
	}
	for i, row := range read(summary, qtrace.SummaryCSVHeader()) {
		if diff := num(row[4]) - num(row[3]) - num(row[5]); diff > 0.002 || diff < -0.002 {
			t.Fatalf("summary row %d: latency %s != done %s - arrival %s", i+1, row[5], row[4], row[3])
		}
		if share := num(row[10]); share <= 0 || share > 1 || row[7] == "" {
			t.Fatalf("summary row %d: dominant phase %q share %v", i+1, row[7], share)
		}
	}
}

// TestValidateFlagMatrix pins the flag contract: a flag the selected
// mode would silently ignore is an error, so is a numeric value outside
// the flag's domain, and every meaningful combination is accepted — the
// benchmark's reachsim argument lists included.
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
		{[]string{"cluster", "csv", "exp"}, "-exp"},
		{[]string{"cluster", "j"}, "-j"},
		{[]string{"cluster", "qtrace"}, "-qtrace"},
		{[]string{"nodes"}, "-nodes requires -cluster"},
		{[]string{"route"}, "-route requires -cluster"},
		{[]string{"cache"}, "-cache requires -cluster"},
		{[]string{"cache-ttl"}, "-cache-ttl requires -cluster"},
		{[]string{"slo"}, "-slo requires -cluster"},
		{[]string{"slo-window"}, "-slo-window requires -cluster"},
		{[]string{"cluster", "slo-window"}, "-slo-window requires -slo"},
		{[]string{"cluster", "cache", "cache-ttl", "slo-window"}, "-slo-window requires -slo"},
		{[]string{"cluster", "cache-ttl"}, "-cache-ttl requires -cache"},
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
		{[]string{"stats", "qtrace=q.csv"}, "-qtrace does nothing with -stats"},
		{[]string{"stats", "metrics=x.csv"}, "-metrics does nothing with -stats"},
		{[]string{"list", "exp=bogus", "j=2"}, "does nothing with -list"},
		{[]string{"trace=t.json", "exp=fig9", "j=3", "qtrace=q.csv"}, "does nothing with -trace"},
		{[]string{"trace=t.json", "metrics=m.csv", "csv"}, "-csv does nothing with -trace"},
		{[]string{"exp=table1", "metrics-interval=1ms"}, "-metrics-interval requires -metrics"},
		{[]string{"exp=table1", "spans"}, "-spans requires -cluster or -trace"},
		{[]string{"j=-3"}, "-j must be non-negative, got -3"},
	}
	for _, c := range rejected {
		_, err := validateFlags(given(c.flags...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("flags %v: err = %v, want %q", c.flags, err, c.want)
		}
	}
	accepted := [][]string{
		{},
		{"exp", "j", "csv", "metrics", "metrics-interval", "qtrace"},
		{"pj"}, // deprecated no-op, still accepted
		{"trace", "spans", "metrics-interval"},
		{"cluster", "nodes", "route", "pj", "cache", "cache-ttl", "csv"},
		{"cluster", "metrics", "metrics-interval", "spans", "trace", "slo", "slo-window"},
		{"cluster", "flight"},
		{"cluster", "flight", "flight-window", "detect", "arrival", "slo", "metrics", "trace"},
		{"stats", "csv"},
		{"cluster", "nodes=0", "pj=0", "cache=0", "slo=0", "metrics-interval=0s"},
		{"cluster", "slo=250", "slo-window=0.5", "flight", "flight-window=1e-3"},
		{"cluster", "slo=1e-9", "slo-window=1e-9", "flight", "flight-window=1e-9"}, // 1 ps
		// The benchmark's reachsim argument lists (bench/workload.go,
		// bench/run.go, bench/trace.go): -list, -exp <id> -j 1, the
		// cluster-observed run, and the bare flash run plus each sink group.
		{"list"},
		{"exp=all", "j=2"},
		{"exp=table1", "j=1"},
		{"cluster", "pj=1", "slo=400", "arrival=flash", "flight", "detect", "metrics", "spans", "trace"},
		{"cluster", "pj=1", "arrival=flash"},
		{"cluster", "pj=1", "arrival=flash", "metrics", "spans"},
		{"cluster", "pj=1", "arrival=flash", "trace"},
		{"cluster", "pj=1", "arrival=flash", "slo=400"},
		{"cluster", "pj=1", "arrival=flash", "flight", "detect"},
	}
	for _, flags := range accepted {
		if _, err := validateFlags(given(flags...)); err != nil {
			t.Errorf("flags %v: unexpected error %v", flags, err)
		}
	}
}
