package flight

import (
	"sync"

	"repro/internal/qtrace"
	"repro/internal/report"
	"repro/internal/sim"
)

// maxSLOWindows bounds retained window state: a monitor on an unbounded
// sweep drops its oldest windows past this count (the cumulative breach
// counters are unaffected — only per-window quantiles age out).
const maxSLOWindows = 1024

// SLOMonitor tracks query latency against an objective over tumbling
// sim-time windows: each completion (delivered through the qtrace.Observer
// hook, so windows are keyed by *simulated* completion time, not wall
// clock) folds into its window's latency sketch and, when it exceeds the
// objective, the window's and the run's burn counters. Windowing by sim
// time makes the output deterministic: the same run produces the same
// window table at any -j.
//
// The monitor is mutex-protected — completions arrive on the simulation's
// goroutine while HTTP scrapes read snapshots from the server's.
type SLOMonitor struct {
	mu        sync.Mutex
	width     sim.Time
	objective sim.Time
	// windows holds the populated windows stamped with their index
	// at/width, so its span keeps the newest maxSLOWindows indices however
	// far apart completions land, and a window slot costs nothing until a
	// completion lands in it.
	windows  ring[sloWindow]
	queries  uint64
	breaches uint64
	evicted  uint64 // populated windows the ring aged out
}

type sloWindow struct {
	count    int
	breaches int
	sketch   *qtrace.Sketch
}

// NewSLOMonitor creates a monitor with the given window width and latency
// objective (both must be positive).
func NewSLOMonitor(width, objective sim.Time) *SLOMonitor {
	if width <= 0 || objective <= 0 {
		panic("flight: SLO window and objective must be positive")
	}
	return &SLOMonitor{width: width, objective: objective,
		windows: ring[sloWindow]{span: maxSLOWindows - 1}}
}

// QueryDone implements qtrace.Observer: fold one completion into the
// window covering its simulated completion instant. Completions arrive in
// nondecreasing time, as one query log delivers them; one older than the
// newest window counts toward the totals only.
func (m *SLOMonitor) QueryDone(_ int, at, latency sim.Time) {
	idx := at / m.width
	breached := latency > m.objective
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries++
	if breached {
		m.breaches++
	}
	live := m.windows.live()
	if n := len(live); n == 0 || live[n-1].at < idx {
		m.evicted += uint64(m.windows.push(idx, sloWindow{sketch: qtrace.NewSketch(0)}))
		live = m.windows.live()
	}
	if w := &live[len(live)-1]; w.at == idx {
		w.v.count++
		w.v.sketch.Add(latency)
		if breached {
			w.v.breaches++
		}
	}
}

// SLOWindowStat is one window's summary in a snapshot.
type SLOWindowStat struct {
	StartMs  float64 `json:"start_ms"`
	Queries  int     `json:"queries"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	P999Ms   float64 `json:"p999_ms"`
	Breaches int     `json:"breaches"`
}

// SLOStats is the monitor's snapshot shape (served under /progress and
// expvar).
type SLOStats struct {
	ObjectiveMs float64 `json:"objective_ms"`
	WindowMs    float64 `json:"window_ms"`
	Queries     uint64  `json:"queries"`
	Breaches    uint64  `json:"breaches"`
	BurnPct     float64 `json:"burn_pct"`
	// WindowsEvicted counts populated windows silently aged out past the
	// maxSLOWindows retention cap — when non-zero, the per-window rows
	// below are a suffix of the run, not the whole story.
	WindowsEvicted uint64          `json:"windows_evicted,omitempty"`
	Windows        []SLOWindowStat `json:"windows,omitempty"`
}

// Stats snapshots the monitor: cumulative burn plus per-window quantiles
// of the retained windows, oldest first (only populated windows exist).
func (m *SLOMonitor) Stats() SLOStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := SLOStats{
		ObjectiveMs:    m.objective.Milliseconds(),
		WindowMs:       m.width.Milliseconds(),
		Queries:        m.queries,
		Breaches:       m.breaches,
		WindowsEvicted: m.evicted,
	}
	if m.queries > 0 {
		st.BurnPct = 100 * float64(m.breaches) / float64(m.queries)
	}
	for _, w := range m.windows.live() {
		st.Windows = append(st.Windows, SLOWindowStat{
			StartMs:  (w.at * m.width).Milliseconds(),
			Queries:  w.v.count,
			P50Ms:    w.v.sketch.Quantile(0.5).Milliseconds(),
			P99Ms:    w.v.sketch.Quantile(0.99).Milliseconds(),
			P999Ms:   w.v.sketch.Quantile(0.999).Milliseconds(),
			Breaches: w.v.breaches,
		})
	}
	return st
}

// Table renders the end-of-run SLO report: one row per non-empty window
// with its quantiles and burn, plus cumulative footnotes. Returns nil when
// no query completed.
func (m *SLOMonitor) Table() *report.Table {
	st := m.Stats()
	if st.Queries == 0 {
		return nil
	}
	t := &report.Table{
		Title: "SLO windows — rolling sim-time latency quantiles vs objective",
		Columns: []string{
			"window start ms", "queries", "p50 ms", "p99 ms", "p999 ms",
			"breaches", "burn %",
		},
	}
	for _, w := range st.Windows {
		burn := 0.0
		if w.Queries > 0 {
			burn = 100 * float64(w.Breaches) / float64(w.Queries)
		}
		t.AddRow(
			report.F(w.StartMs, 3),
			report.F(float64(w.Queries), 0),
			report.F(w.P50Ms, 3),
			report.F(w.P99Ms, 3),
			report.F(w.P999Ms, 3),
			report.F(float64(w.Breaches), 0),
			report.F(burn, 1),
		)
	}
	t.AddNote("objective %.3f ms, window %.3f ms", st.ObjectiveMs, st.WindowMs)
	t.AddNote("%d queries, %d breaches (%.2f%% burn)", st.Queries, st.Breaches, st.BurnPct)
	if st.WindowsEvicted > 0 {
		t.AddNote("%d populated windows evicted past the %d-window retention cap — rows above are a suffix of the run",
			st.WindowsEvicted, maxSLOWindows)
	}
	return t
}
