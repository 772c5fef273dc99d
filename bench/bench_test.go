package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

func TestArrivalsSeeded(t *testing.T) {
	a := arrivals(7, 0, 80, 2000)
	if b := arrivals(7, 0, 80, 2000); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := arrivals(8, 0, 80, 2000); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if d := arrivals(7, 1, 80, 2000); reflect.DeepEqual(a, d) {
		t.Fatal("different streams of one seed gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	// 2000 exponential gaps at 80 q/s: the mean gap is 12.5 ms within a
	// few percent.
	if mean := a[len(a)-1].Seconds() / float64(len(a)); math.Abs(mean-1.0/80)/(1.0/80) > 0.1 {
		t.Errorf("mean gap %.4f s, want about %.4f s", mean, 1.0/80)
	}
}

func TestSustainableQPS(t *testing.T) {
	rates := []float64{40, 60, 80, 100}
	for _, tc := range []struct {
		name   string
		p99    []float64
		want   float64
		wantOK bool
	}{
		{"between rungs", []float64{335, 410, 590, 1873}, 60 + 90*20/180.0, true},
		{"at the first rung", []float64{600, 700, 800, 900}, 40, false},
		{"never", []float64{100, 200, 300, 400}, 100, false},
		{"exactly at the limit is still under it", []float64{300, 500, 700, 900}, 60, true},
	} {
		got, ok := sustainableQPS(rates, tc.p99, 500)
		if math.Abs(got-tc.want) > 1e-9 || ok != tc.wantOK {
			t.Errorf("%s: got %v (ok %v), want %v (ok %v)", tc.name, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestParseFig13(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fig13.txt"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseFig13(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := fig13{Throughput: 4.67, PaperThroughput: 4.5, Latency: 2.42, PaperLatency: 2.2, Energy: 59.7, PaperEnergy: 52}
	if f != want {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	if got := f.energyErrPP(); math.Abs(got-7.7) > 1e-9 {
		t.Errorf("energy error %v pp, want 7.7", got)
	}
	if _, err := parseFig13([]byte("Fig 13 — no note here\n")); err == nil {
		t.Error("parsing output without the note succeeded")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles of 1..4 = %v, %v; want 1.25, 3.75", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	wall, _ := lookupDef("wall_s")
	wall.Contract = false // not serialized
	st := metricStat{metricDef: wall, Values: []float64{1.5, 1.25, 1.75}}
	st.summarize()
	r := &record{
		Schema: recordSchema,
		Host:   hostInfo{Hostname: "h", CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.x", Commit: "abc"},
		Seed:   42,
		Trace:  true,
		Workloads: []workloadRecord{{
			Name: "cluster-steady", Attempted: 8000, Digest: "d", Errors: []string{"e"},
			Metrics: []metricStat{st},
			Layers:  []metricStat{{metricDef: metricDef{Name: "sim.events", Unit: "count", Kind: kindSim}, Values: []float64{3}, Median: 3, Q1: 3, Q3: 3, N: 1}},
		}},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeRecord(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := readRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, r)
	}
}

// TestBenchmarkJSONMatchesHarness keeps the root BENCHMARK.json and the
// harness's metric and workload tables in agreement: the declared metrics
// are exactly the Contract ones, with the same units, directions and
// bounds, in the same order.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	check := func(kind string, declared []metric, defs []metricDef, withBound bool) {
		var got []metric
		for _, d := range defs {
			if d.Contract {
				m := metric{Name: d.Name, Unit: d.Unit, Better: d.Better}
				if withBound {
					bound := d.Bound
					m.Bound = &bound
				}
				got = append(got, m)
			}
		}
		if !reflect.DeepEqual(declared, got) {
			t.Errorf("BENCHMARK.json %s does not match the harness:\n declared %+v\n harness  %+v", kind, declared, got)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, layerDefs, false)
}

func TestResourceClass(t *testing.T) {
	for name, want := range map[string]string{
		"node3.ssd2.flash":     "ssd.flash",
		"node12.mem.aimdimm0":  "mem.aimdimm",
		"node0.ssd.host_link":  "ssd.host_link",
		"cluster.net.node3.in": "cluster.net.node.in",
		"noc.onchip0.in#2":     "noc.onchip.in",
	} {
		if got := resourceClass(name); got != want {
			t.Errorf("resourceClass(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog("w")
	root := l.begin("pass", "bench")
	child := l.begin("run", "sim")
	time.Sleep(2 * time.Millisecond)
	l.end(child)
	l.end(root)
	l.adopt([]span{{Name: "new", Layer: "cluster", DurNS: 10, Parent: -1}, {Name: "inner", Layer: "sim", DurNS: 4, Parent: 0}}, 0)
	self := selfNS(l.spans)
	if self[0] != l.spans[0].DurNS-l.spans[1].DurNS {
		t.Errorf("root self time %d, want duration %d less child %d", self[0], l.spans[0].DurNS, l.spans[1].DurNS)
	}
	if l.spans[2].Parent != -1 || l.spans[3].Parent != 2 {
		t.Errorf("adopted parents %d, %d; want -1, 2", l.spans[2].Parent, l.spans[3].Parent)
	}
	if self[2] != 6 || self[3] != 4 {
		t.Errorf("adopted self times %d, %d; want 6, 4", self[2], self[3])
	}
}

func TestSampleLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/core.(*GAM).dispatchAll", "repro/internal/sim.(*Engine).runBound"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"sort.Slice", "repro/internal/sim.(*MultiEngine).drain"}, "sim"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime"},
		{[]string{"main.runClusterPass"}, "main"},
		{[]string{"time.now"}, "other"},
	} {
		if got := sampleLayer(tc.stack); got != tc.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestProfileShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	var x float64
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x += math.Sqrt(float64(len(path)) + x)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v%%, want 100%% (%v, %v)", sum, shares, x)
	}
}

// TestQuickSmoke runs the three in-process workloads at 1/50 of their
// size: every query merges, and a traced pass (serial domains, observer
// attached, timelines kept) reproduces the timed pass's model digest.
func TestQuickSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !w.inProcess() {
			continue
		}
		a, err := runClusterPass(w, root, 3, 50, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if a.Completed != a.Submitted || a.Submitted != w.Queries/50*len(w.Rungs) {
			t.Errorf("%s: %d of %d queries merged", w.Name, a.Completed, a.Submitted)
		}
		tr, err := runClusterPass(w, root, 3, 50, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if a.Digest != tr.Digest {
			t.Errorf("%s: timed digest %.12s, traced %.12s", w.Name, a.Digest, tr.Digest)
		}
		if ev := tr.Layers["sim.events"]; ev != float64(a.Events) {
			t.Errorf("%s: barrier observer counted %v events, the engine %d", w.Name, ev, a.Events)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.Name)
		}
	}
}
