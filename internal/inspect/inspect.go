// Package inspect is the live run inspector behind `reachsim -http`: a
// small HTTP server that exposes, while experiments execute, the query
// completion counters and current latency quantiles (via the qtrace
// observer hook), per-resource busy fractions from completed runs, expvar
// counters, and net/http/pprof profiling endpoints. A cluster run's SLO
// monitor and flight recorder are served through flight's own types; the
// front-end cache comes in through CacheCounters, which keeps the
// inspector off the model packages.
//
// The server aggregates across every run of the process: simulations run
// on worker goroutines, so all state behind the handlers is mutex
// protected. Observer callbacks stay O(1) — they run inside simulation
// event loops.
package inspect

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/qtrace"
	"repro/internal/sim"
)

// ResourceBusy is one resource's utilization in a progress snapshot.
type ResourceBusy struct {
	Name    string  `json:"name"`
	BusyPct float64 `json:"busy_pct"`
}

// Snapshot is the JSON shape served at /progress.
type Snapshot struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	QueriesCompleted uint64  `json:"queries_completed"`
	P50Ms            float64 `json:"p50_ms"`
	P95Ms            float64 `json:"p95_ms"`
	P99Ms            float64 `json:"p99_ms"`
	P999Ms           float64 `json:"p999_ms"`
	RunsObserved     int     `json:"runs_observed"`
	LastRun          string  `json:"last_run,omitempty"`
	// Resources carries the most recent completed run's per-resource busy
	// fractions, in registry (sorted-name) order.
	Resources []ResourceBusy `json:"resources,omitempty"`

	// Domain-partition progress, present once the server has observed a
	// MultiEngine barrier (cluster runs): the barrier-round count, the
	// conservative lookahead, and per-domain clocks/mailbox depths as of
	// the latest barrier — a live view of how far each node's domain has
	// advanced and how much cross-domain traffic is in flight.
	BarrierRounds       uint64    `json:"barrier_rounds,omitempty"`
	LookaheadUS         float64   `json:"lookahead_us,omitempty"`
	DomainClocksUS      []float64 `json:"domain_clocks_us,omitempty"`
	DomainMailboxDepths []int     `json:"domain_mailbox_depths,omitempty"`

	// Cache, present when a cluster run with the front-end result cache
	// enabled is observed, is the cache's live counters.
	Cache *CacheCounters `json:"cluster_cache,omitempty"`

	// SLO, present when a windowed SLO monitor is observed, carries the
	// rolling sim-time window quantiles and the burn counters.
	SLO *flight.SLOStats `json:"slo,omitempty"`

	// Anomalies, present when a flight recorder is observed, is the
	// recorder's live detector state (also served alone at /anomalies).
	Anomalies *flight.Status `json:"anomalies,omitempty"`
}

// CacheCounters is the front-end result cache's live accounting in a
// progress snapshot — a decoupled mirror of cluster.CacheStats, so the
// inspector does not depend on the cluster package.
type CacheCounters struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Expired   uint64  `json:"expired"`
	Coalesced uint64  `json:"coalesced"`
	Evictions uint64  `json:"evictions"`
	Lookups   uint64  `json:"lookups"`
	HitRate   float64 `json:"hit_rate"`
}

// Server is the inspector. It implements qtrace.Observer, so listing it
// in every run's qtrace.Options.Observers feeds the live counters, and
// sim.BarrierObserver, so installing it on a MultiEngine feeds the
// domain-partition view.
type Server struct {
	mu        sync.Mutex
	ln        net.Listener
	srv       *http.Server
	started   time.Time
	queries   uint64
	sketch    *qtrace.Sketch
	runsDone  int
	lastRun   string
	resources []ResourceBusy
	cache     func() CacheCounters
	slo       *flight.SLOMonitor
	recorder  *flight.Recorder

	// The latest barrier's copy of the domain partition; clocks is nil
	// until the first barrier.
	rounds    uint64
	lookahead sim.Time
	clocks    []sim.Time
	mailboxes []int
}

// New returns an inspector with empty counters. Call Start to serve.
func New() *Server {
	return &Server{sketch: qtrace.NewSketch(0), started: time.Now()}
}

// QueryDone implements qtrace.Observer: one completed query's end-to-end
// latency folds into the global sketch.
func (s *Server) QueryDone(_ int, _, latency sim.Time) {
	s.mu.Lock()
	s.queries++
	s.sketch.Add(latency)
	s.mu.Unlock()
}

// ObserveRun records one completed run: its label and the per-resource
// busy fractions from its stats registry (replacing the previous run's).
// Call it only after the run's engine has drained — the registry walk
// reads model internals that are not synchronized during simulation.
func (s *Server) ObserveRun(run string, reg *sim.StatsRegistry) {
	var res []ResourceBusy
	reg.Walk(func(name string, r sim.Resource) {
		res = append(res, ResourceBusy{Name: name, BusyPct: r.ResourceStats().Utilization * 100})
	})
	s.mu.Lock()
	s.runsDone++
	s.lastRun = run
	s.resources = res
	s.mu.Unlock()
}

// OnBarrier implements sim.BarrierObserver: it copies the coordinator's
// round count, lookahead, per-domain clocks and mailbox depths, so
// snapshots thereafter carry the domain-partition view of the latest
// barrier while the run goes on.
func (s *Server) OnBarrier(m *sim.MultiEngine, mailboxes []int, _ bool) {
	s.mu.Lock()
	s.rounds, s.lookahead = m.Rounds(), m.Lookahead()
	s.clocks = s.clocks[:0]
	for i := range m.Domains() {
		s.clocks = append(s.clocks, m.Domain(i).Now())
	}
	s.mailboxes = append(s.mailboxes[:0], mailboxes...)
	s.mu.Unlock()
}

// ObserveCache attaches a front-end cache counter source (the cluster's
// CacheStats, adapted): snapshots thereafter include its live hit/miss/
// coalesce accounting. The source must be safe to call while the
// simulation runs — the cluster's counters are atomics.
func (s *Server) ObserveCache(fn func() CacheCounters) {
	s.mu.Lock()
	s.cache = fn
	s.mu.Unlock()
}

// ObserveSLO attaches a windowed SLO monitor: snapshots thereafter
// include its window quantiles and burn counters. The monitor carries its
// own mutex, so scraping while the simulation runs is race-free.
func (s *Server) ObserveSLO(m *flight.SLOMonitor) {
	s.mu.Lock()
	s.slo = m
	s.mu.Unlock()
}

// ObserveAnomalies attaches a flight recorder: snapshots thereafter
// include its live detector state and the /anomalies endpoint serves it
// alone. The recorder guards its status fields with its own mutex, so
// scraping while the simulation runs is race-free.
func (s *Server) ObserveAnomalies(r *flight.Recorder) {
	s.mu.Lock()
	s.recorder = r
	s.mu.Unlock()
}

// Snapshot returns the current progress state.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		UptimeSeconds:    time.Since(s.started).Seconds(),
		QueriesCompleted: s.queries,
		RunsObserved:     s.runsDone,
		LastRun:          s.lastRun,
		Resources:        append([]ResourceBusy(nil), s.resources...),
	}
	if s.sketch.Count() > 0 {
		snap.P50Ms = s.sketch.Quantile(0.5).Milliseconds()
		snap.P95Ms = s.sketch.Quantile(0.95).Milliseconds()
		snap.P99Ms = s.sketch.Quantile(0.99).Milliseconds()
		snap.P999Ms = s.sketch.Quantile(0.999).Milliseconds()
	}
	if s.clocks != nil {
		snap.BarrierRounds = s.rounds
		if s.lookahead != sim.MaxTime {
			snap.LookaheadUS = s.lookahead.Microseconds()
		}
		for _, c := range s.clocks {
			snap.DomainClocksUS = append(snap.DomainClocksUS, c.Microseconds())
		}
		snap.DomainMailboxDepths = append([]int(nil), s.mailboxes...)
	}
	if s.cache != nil {
		cc := s.cache()
		snap.Cache = &cc
	}
	if s.slo != nil {
		st := s.slo.Stats() // its own mutex
		snap.SLO = &st
	}
	if s.recorder != nil {
		st := s.recorder.Status() // its own mutex
		snap.Anomalies = &st
	}
	return snap
}

// active is the server expvar reads from: the expvar registry is global
// and rejects re-publishing a name, so the package publishes its vars once
// and routes them through this pointer (tests start several servers).
var (
	activeMu sync.Mutex
	active   *Server
	publish  sync.Once
)

func snapshotActive() (Snapshot, bool) {
	activeMu.Lock()
	s := active
	activeMu.Unlock()
	if s == nil {
		return Snapshot{}, false
	}
	return s.Snapshot(), true
}

// vars are the package's expvar readings, each a projection of the active
// server's snapshot; an absent block reads as zero.
var vars = []struct {
	name string
	get  func(Snapshot) any
}{
	{"qtrace_queries_completed", func(s Snapshot) any { return s.QueriesCompleted }},
	{"qtrace_p99_ms", func(s Snapshot) any { return s.P99Ms }},
	{"qtrace_resources_busy_pct", func(s Snapshot) any {
		out := map[string]float64{}
		for _, r := range s.Resources {
			out[r.Name] = r.BusyPct
		}
		return out
	}},
	{"sim_barrier_rounds", func(s Snapshot) any { return s.BarrierRounds }},
	{"sim_domain_clocks_us", func(s Snapshot) any { return s.DomainClocksUS }},
	{"sim_domain_mailbox_depths", func(s Snapshot) any { return s.DomainMailboxDepths }},
	{"cluster_cache_hits", func(s Snapshot) any { return orZero(s.Cache).Hits }},
	{"cluster_cache_lookups", func(s Snapshot) any { return orZero(s.Cache).Lookups }},
	{"cluster_cache_hit_rate", func(s Snapshot) any { return orZero(s.Cache).HitRate }},
	{"cluster_cache_coalesced", func(s Snapshot) any { return orZero(s.Cache).Coalesced }},
	{"slo_breaches_total", func(s Snapshot) any { return orZero(s.SLO).Breaches }},
	{"slo_burn_pct", func(s Snapshot) any { return orZero(s.SLO).BurnPct }},
	{"slo_window_p99_ms", func(s Snapshot) any {
		if w := orZero(s.SLO).Windows; len(w) > 0 {
			return w[len(w)-1].P99Ms
		}
		return float64(0)
	}},
	{"slo_windows_evicted", func(s Snapshot) any { return orZero(s.SLO).WindowsEvicted }},
	{"flight_detections_total", func(s Snapshot) any {
		var total uint64
		for _, n := range orZero(s.Anomalies).Detections {
			total += n
		}
		return total
	}},
	{"flight_frozen", func(s Snapshot) any { return orZero(s.Anomalies).Frozen }},
}

// orZero dereferences an optional snapshot block, zero when absent.
func orZero[T any](p *T) T {
	var z T
	if p != nil {
		z = *p
	}
	return z
}

func publishVars() {
	for _, v := range vars {
		expvar.Publish(v.name, expvar.Func(func() any {
			snap, _ := snapshotActive()
			return v.get(snap)
		}))
	}
}

// Start listens on addr (":8080", or "127.0.0.1:0" for an ephemeral port)
// and serves the inspector endpoints: /progress (JSON snapshot),
// /debug/vars (expvar) and /debug/pprof. The server becomes the target of
// the package's expvar readings until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	publish.Do(publishVars)
	activeMu.Lock()
	active = s
	activeMu.Unlock()

	mux := http.NewServeMux()
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/anomalies", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.mu.Lock()
		fr := s.recorder
		s.mu.Unlock()
		var body any = map[string]bool{"enabled": false}
		if fr != nil {
			body = fr.Status()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "reachsim inspector\n\n/progress    JSON progress snapshot\n/anomalies   flight-recorder detector state\n/debug/vars  expvar counters\n/debug/pprof profiling\n")
	})

	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	s.mu.Unlock()
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return nil
}

// Addr reports the bound address (host:port) after Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the HTTP server and detaches the expvar readings.
func (s *Server) Close() error {
	activeMu.Lock()
	if active == s {
		active = nil
	}
	activeMu.Unlock()
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}
