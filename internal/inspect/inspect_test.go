package inspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The server must plug straight into qtrace.Options.Observers.
var _ qtrace.Observer = (*Server)(nil)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestServerEndpoints drives the inspector the way `reachsim -http` does:
// query completions through the observer hook, a finished run's registry
// through ObserveRun, then the HTTP surface — /progress JSON, expvar,
// pprof index and the root help page.
func TestServerEndpoints(t *testing.T) {
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	for i := 0; i < 100; i++ {
		s.QueryDone(i, 0, sim.Time(i+1)*sim.Millisecond)
	}
	run, err := experiments.RunPipeline(workload.DefaultModel(), experiments.ReACHMapping(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.ObserveRun("pipeline", run.Sys.Engine().Stats())

	var snap Snapshot
	if err := json.Unmarshal([]byte(get(t, base+"/progress")), &snap); err != nil {
		t.Fatalf("/progress is not valid JSON: %v", err)
	}
	if snap.QueriesCompleted != 100 {
		t.Errorf("queries_completed = %d, want 100", snap.QueriesCompleted)
	}
	// 100 samples of 1..100 ms: p50 near 50 ms, p99 near 99 ms, within the
	// sketch's relative error.
	if snap.P50Ms < 45 || snap.P50Ms > 55 {
		t.Errorf("p50_ms = %v, want ~50", snap.P50Ms)
	}
	if snap.P99Ms < 90 || snap.P99Ms > 105 {
		t.Errorf("p99_ms = %v, want ~99", snap.P99Ms)
	}
	if snap.P99Ms < snap.P50Ms {
		t.Errorf("p99 %v < p50 %v", snap.P99Ms, snap.P50Ms)
	}
	if snap.RunsObserved != 1 || snap.LastRun != "pipeline" {
		t.Errorf("runs_observed = %d last_run = %q, want 1 %q",
			snap.RunsObserved, snap.LastRun, "pipeline")
	}
	if len(snap.Resources) == 0 {
		t.Fatal("no per-resource busy fractions in snapshot")
	}
	for _, r := range snap.Resources {
		if r.BusyPct < 0 || r.BusyPct > 100 {
			t.Errorf("resource %s busy %.1f%% out of range", r.Name, r.BusyPct)
		}
	}

	vars := get(t, base+"/debug/vars")
	for _, want := range []string{"qtrace_queries_completed", "qtrace_p99_ms", "qtrace_resources_busy_pct"} {
		if !strings.Contains(vars, want) {
			t.Errorf("/debug/vars missing %q", want)
		}
	}
	if !strings.Contains(vars, `"qtrace_queries_completed": 100`) {
		t.Errorf("/debug/vars does not report 100 completed queries:\n%.500s", vars)
	}
	if !strings.Contains(get(t, base+"/debug/pprof/"), "profile") {
		t.Error("pprof index not served")
	}
	if !strings.Contains(get(t, base+"/"), "/progress") {
		t.Error("root help page missing endpoint list")
	}
}

// TestSecondServerTakesOverExpvar: expvar names are published once per
// process; starting a second server (new run, new test) must not panic and
// must route the global vars to the newest server.
func TestSecondServerTakesOverExpvar(t *testing.T) {
	a := New()
	if err := a.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	a.QueryDone(0, 0, sim.Millisecond)
	b := New()
	if err := b.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.QueryDone(0, 0, sim.Millisecond)
	b.QueryDone(1, 0, sim.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	vars := get(t, fmt.Sprintf("http://%s/debug/vars", b.Addr()))
	if !strings.Contains(vars, `"qtrace_queries_completed": 2`) {
		t.Errorf("expvar not routed to the active server:\n%.500s", vars)
	}
	// After the active server closes, the vars go quiet instead of panicking.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if snap, ok := snapshotActive(); ok {
		t.Errorf("active snapshot still live after Close: %+v", snap)
	}
}

// multiNop is a minimal handler for driving a MultiEngine in tests.
type multiNop struct{}

func (multiNop) Fire(*sim.Engine, uint64) {}

// TestObserveMulti: installed as a MultiEngine's barrier observer, the
// server reports in /progress and expvar the per-domain view — barrier
// rounds, the conservative lookahead and each domain's clock — alongside
// the query metrics.
func TestObserveMulti(t *testing.T) {
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	me := sim.NewMultiEngine(2)
	x := sim.NewCrossLink(me.Domain(0), "net", 1e9, sim.Millisecond)
	me.Domain(0).AtCall(sim.Millisecond, crossSender{x, me.Domain(1)}, 0)
	me.SetBarrierObserver(s)
	me.Run()

	var snap Snapshot
	if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/progress")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.BarrierRounds == 0 {
		t.Error("barrier_rounds = 0 after a multi-domain run")
	}
	if want := sim.Millisecond.Microseconds(); snap.LookaheadUS != want {
		t.Errorf("lookahead_us = %v, want %v", snap.LookaheadUS, want)
	}
	if len(snap.DomainClocksUS) != 2 {
		t.Fatalf("domain_clocks_us has %d entries, want 2", len(snap.DomainClocksUS))
	}
	if len(snap.DomainMailboxDepths) != 2 {
		t.Fatalf("domain_mailbox_depths has %d entries, want 2", len(snap.DomainMailboxDepths))
	}
	vars := get(t, "http://"+s.Addr()+"/debug/vars")
	for _, want := range []string{"sim_barrier_rounds", "sim_domain_clocks_us", "sim_domain_mailbox_depths"} {
		if !strings.Contains(vars, want) {
			t.Errorf("/debug/vars missing %q", want)
		}
	}
}

// crossSender exports one event across the link when fired.
type crossSender struct {
	x   *sim.CrossLink
	dst *sim.Engine
}

func (c crossSender) Fire(e *sim.Engine, arg uint64) {
	c.x.Send(c.dst, 64, multiNop{}, arg)
}

// TestObserveCache: after attaching a cache counter source, /progress
// carries its live accounting and the cluster_cache_* expvars read
// through it; without one the snapshot omits the block entirely.
func TestObserveCache(t *testing.T) {
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var snap Snapshot
	if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/progress")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cache != nil {
		t.Fatalf("cache block present before ObserveCache: %+v", snap.Cache)
	}

	s.ObserveCache(func() CacheCounters {
		return CacheCounters{Hits: 6, Misses: 2, Coalesced: 3, Lookups: 8, HitRate: 0.75}
	})
	if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/progress")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cache == nil || snap.Cache.Hits != 6 || snap.Cache.Coalesced != 3 || snap.Cache.HitRate != 0.75 {
		t.Fatalf("cache block = %+v, want the observed counters", snap.Cache)
	}
	vars := get(t, "http://"+s.Addr()+"/debug/vars")
	for _, want := range []string{`"cluster_cache_hits": 6`, `"cluster_cache_lookups": 8`,
		`"cluster_cache_coalesced": 3`, `"cluster_cache_hit_rate": 0.75`} {
		if !strings.Contains(vars, want) {
			t.Errorf("/debug/vars missing %q", want)
		}
	}
}

// TestProgressEmptyServer: a just-started inspector serves zeros, not NaNs
// or errors.
func TestProgressEmptyServer(t *testing.T) {
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var snap Snapshot
	if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/progress")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.QueriesCompleted != 0 || snap.P99Ms != 0 || snap.RunsObserved != 0 {
		t.Errorf("empty server snapshot not zero: %+v", snap)
	}
}

// TestExpvarReadings pins every expvar reading: each reads zero before
// its block is observed, then the observed value. The flight recorder is
// frozen by a sustained breach, and /anomalies serves its status alone.
func TestExpvarReadings(t *testing.T) {
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	readings := func() map[string]string {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/debug/vars")), &raw); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for k, v := range raw {
			out[k] = string(v)
		}
		return out
	}
	check := func(want map[string]string) {
		t.Helper()
		got := readings()
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s = %s, want %s", name, got[name], w)
			}
		}
	}
	check(map[string]string{
		"qtrace_queries_completed":  "0",
		"qtrace_p99_ms":             "0",
		"qtrace_resources_busy_pct": "{}",
		"sim_barrier_rounds":        "0",
		"sim_domain_clocks_us":      "null",
		"sim_domain_mailbox_depths": "null",
		"cluster_cache_hits":        "0",
		"cluster_cache_lookups":     "0",
		"cluster_cache_hit_rate":    "0",
		"cluster_cache_coalesced":   "0",
		"slo_breaches_total":        "0",
		"slo_burn_pct":              "0",
		"slo_window_p99_ms":         "0",
		"slo_windows_evicted":       "0",
		"flight_detections_total":   "0",
		"flight_frozen":             "false",
	})
	if body := get(t, "http://"+s.Addr()+"/anomalies"); !strings.Contains(body, `"enabled": false`) {
		t.Errorf("/anomalies without a recorder = %s", body)
	}

	s.QueryDone(0, 0, 2*sim.Millisecond)
	s.QueryDone(1, 0, 4*sim.Millisecond)
	me := sim.NewMultiEngine(2)
	x := sim.NewCrossLink(me.Domain(0), "net", 1e9, sim.Millisecond)
	me.Domain(0).AtCall(sim.Millisecond, crossSender{x, me.Domain(1)}, 0)
	me.SetBarrierObserver(s)
	me.Run()
	s.ObserveCache(func() CacheCounters {
		return CacheCounters{Hits: 6, Misses: 2, Coalesced: 3, Lookups: 8, HitRate: 0.75}
	})
	mon := flight.NewSLOMonitor(sim.Millisecond, 10*sim.Millisecond)
	mon.QueryDone(0, 0, 20*sim.Millisecond)
	mon.QueryDone(1, 1, 5*sim.Millisecond)
	s.ObserveSLO(mon)
	fr := flight.New(flight.Config{Window: 100 * sim.Millisecond, Detect: true, Objective: 5 * sim.Millisecond})
	l := qtrace.NewLog(qtrace.Options{Observers: []qtrace.Observer{fr}})
	fr.AttachLog(l)
	for i := 0; i < 40; i++ {
		l.Submitted(i, i, sim.Time(i)*sim.Millisecond)
		l.Completed(i, sim.Time(i+20)*sim.Millisecond)
	}
	s.ObserveAnomalies(fr)

	snap := s.Snapshot()
	js := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if snap.Anomalies == nil || !snap.Anomalies.Frozen || snap.Anomalies.Detections[flight.DetectorSLOBurn] != 1 {
		t.Fatalf("anomalies block = %+v, want frozen by one %s", snap.Anomalies, flight.DetectorSLOBurn)
	}
	check(map[string]string{
		"qtrace_queries_completed":  "2",
		"qtrace_p99_ms":             js(snap.P99Ms),
		"sim_barrier_rounds":        js(snap.BarrierRounds),
		"sim_domain_clocks_us":      js(snap.DomainClocksUS),
		"sim_domain_mailbox_depths": js(snap.DomainMailboxDepths),
		"cluster_cache_hits":        "6",
		"cluster_cache_lookups":     "8",
		"cluster_cache_hit_rate":    "0.75",
		"cluster_cache_coalesced":   "3",
		"slo_breaches_total":        "1",
		"slo_burn_pct":              "50",
		"slo_window_p99_ms":         js(mon.Stats().Windows[0].P99Ms),
		"slo_windows_evicted":       "0",
		"flight_detections_total":   "1",
		"flight_frozen":             "true",
	})
	var st flight.Status
	if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/anomalies")), &st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, *snap.Anomalies) {
		t.Errorf("/anomalies = %+v, want the snapshot's block %+v", st, *snap.Anomalies)
	}
}
