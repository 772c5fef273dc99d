// Package inspect is the live run inspector behind `reachsim -http`: a
// small HTTP server that exposes, while experiments execute, the query
// completion counters and current latency quantiles (via the qtrace
// observer hook), per-resource busy fractions from completed runs, expvar
// counters, and net/http/pprof profiling endpoints.
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
	SLO *SLOStats `json:"slo,omitempty"`

	// Anomalies, present when a flight recorder is observed, is the
	// recorder's live detector state (also served alone at /anomalies).
	Anomalies *AnomalyStatus `json:"anomalies,omitempty"`
}

// AnomalyStatus is the flight recorder's live state in a progress
// snapshot — a decoupled mirror of flight.Status, so the inspector does
// not depend on the flight package (the same pattern as CacheCounters).
type AnomalyStatus struct {
	WindowMs        float64           `json:"window_ms"`
	Detect          bool              `json:"detect"`
	Completions     uint64            `json:"completions"`
	RetainedQueries int               `json:"retained_queries"`
	Detections      map[string]uint64 `json:"detections,omitempty"`
	Frozen          bool              `json:"frozen"`
	TriggerDetector string            `json:"trigger_detector,omitempty"`
	TriggerMs       float64           `json:"trigger_ms,omitempty"`
	TriggerReason   string            `json:"trigger_reason,omitempty"`
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
	slo       *SLOMonitor
	anomalies func() AnomalyStatus

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
func (s *Server) ObserveSLO(m *SLOMonitor) {
	s.mu.Lock()
	s.slo = m
	s.mu.Unlock()
}

// ObserveAnomalies attaches a flight-recorder status source: snapshots
// thereafter include its live detector state and the /anomalies endpoint
// serves it alone. The source must be safe to call while the simulation
// runs — the flight recorder guards its status fields with a mutex.
func (s *Server) ObserveAnomalies(fn func() AnomalyStatus) {
	s.mu.Lock()
	s.anomalies = fn
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
	if s.anomalies != nil {
		a := s.anomalies()
		snap.Anomalies = &a
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

func publishVars() {
	expvar.Publish("qtrace_queries_completed", expvar.Func(func() any {
		snap, _ := snapshotActive()
		return snap.QueriesCompleted
	}))
	expvar.Publish("qtrace_p99_ms", expvar.Func(func() any {
		snap, _ := snapshotActive()
		return snap.P99Ms
	}))
	expvar.Publish("qtrace_resources_busy_pct", expvar.Func(func() any {
		snap, _ := snapshotActive()
		out := map[string]float64{}
		for _, r := range snap.Resources {
			out[r.Name] = r.BusyPct
		}
		return out
	}))
	expvar.Publish("sim_barrier_rounds", expvar.Func(func() any {
		snap, _ := snapshotActive()
		return snap.BarrierRounds
	}))
	expvar.Publish("sim_domain_clocks_us", expvar.Func(func() any {
		snap, _ := snapshotActive()
		return snap.DomainClocksUS
	}))
	expvar.Publish("sim_domain_mailbox_depths", expvar.Func(func() any {
		snap, _ := snapshotActive()
		return snap.DomainMailboxDepths
	}))
	expvar.Publish("cluster_cache_hits", expvar.Func(func() any {
		snap, _ := snapshotActive()
		if snap.Cache == nil {
			return uint64(0)
		}
		return snap.Cache.Hits
	}))
	expvar.Publish("cluster_cache_lookups", expvar.Func(func() any {
		snap, _ := snapshotActive()
		if snap.Cache == nil {
			return uint64(0)
		}
		return snap.Cache.Lookups
	}))
	expvar.Publish("cluster_cache_hit_rate", expvar.Func(func() any {
		snap, _ := snapshotActive()
		if snap.Cache == nil {
			return float64(0)
		}
		return snap.Cache.HitRate
	}))
	expvar.Publish("cluster_cache_coalesced", expvar.Func(func() any {
		snap, _ := snapshotActive()
		if snap.Cache == nil {
			return uint64(0)
		}
		return snap.Cache.Coalesced
	}))
	expvar.Publish("slo_breaches_total", expvar.Func(func() any {
		snap, _ := snapshotActive()
		if snap.SLO == nil {
			return uint64(0)
		}
		return snap.SLO.Breaches
	}))
	expvar.Publish("slo_burn_pct", expvar.Func(func() any {
		snap, _ := snapshotActive()
		if snap.SLO == nil {
			return float64(0)
		}
		return snap.SLO.BurnPct
	}))
	expvar.Publish("slo_window_p99_ms", expvar.Func(func() any {
		snap, _ := snapshotActive()
		if snap.SLO == nil || len(snap.SLO.Windows) == 0 {
			return float64(0)
		}
		return snap.SLO.Windows[len(snap.SLO.Windows)-1].P99Ms
	}))
	expvar.Publish("slo_windows_evicted", expvar.Func(func() any {
		snap, _ := snapshotActive()
		if snap.SLO == nil {
			return uint64(0)
		}
		return snap.SLO.WindowsEvicted
	}))
	expvar.Publish("flight_detections_total", expvar.Func(func() any {
		snap, _ := snapshotActive()
		if snap.Anomalies == nil {
			return uint64(0)
		}
		var total uint64
		for _, n := range snap.Anomalies.Detections {
			total += n
		}
		return total
	}))
	expvar.Publish("flight_frozen", expvar.Func(func() any {
		snap, _ := snapshotActive()
		return snap.Anomalies != nil && snap.Anomalies.Frozen
	}))
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
		fn := s.anomalies
		s.mu.Unlock()
		var body any
		if fn == nil {
			body = map[string]bool{"enabled": false}
		} else {
			st := fn()
			body = &st
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
