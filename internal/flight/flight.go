// Package flight is the cluster's always-on black-box recorder: bounded
// trailing-window rings that continuously retain the last W sim-
// milliseconds of observability data — the IDs of the queries completed
// on the front end's qtrace stream, per-domain barrier snapshots, router
// queue depths and cache counters — plus an online
// detector layer that watches the same stream for anomalies: SLO
// burn-rate breach over short and long trailing windows (multi-window,
// error-budget style), hot-shard queue divergence (max/median outstanding
// ratio), and cache hit-rate collapse. The first detector to fire freezes
// every ring, so the retained window ends exactly at the anomaly and a
// self-contained diagnostic bundle — windowed Chrome trace, straggler
// table, barrier/mailbox stats, detector verdict with the triggering time
// series — can be cut after the run (cmd/reachsim's -flight bundle
// writer), which looks the retained IDs up in the run's query log.
//
// The recorder keeps live only what cannot be rebuilt after the run: the
// detectors' observations (router loads and cache counters are
// instantaneous) and the barrier samples. Everything else a bundle or a
// report shows is a reduction of the query log once the run ends, as is
// the SLO table (SLOTable).
//
// Determinism. Both recorder inputs are already serialised by the
// engine's determinism machinery: query completions fire in the front-end
// event domain in nondecreasing simulated-time order (DESIGN.md §4g), and
// barrier callbacks run on the coordinator with a deterministic round
// structure (§4i). Every ring therefore holds a pure function of the
// simulation — byte-identical at any -j — and so does the frozen window:
// the trigger is evaluated per completion from ring state alone, so the
// freeze lands on the same completion on every run. Sliding-window
// maintenance is O(1) amortised per event.
//
// When the recorder is not attached, nothing in the hot path changes: the
// log has no observer and every 0-allocs/op gate holds.
package flight

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/qtrace"
	"repro/internal/sim"
)

// Detector names, as they appear in verdicts.
const (
	DetectorSLOBurn   = "slo-burn"
	DetectorQueueSkew = "queue-divergence"
	DetectorCacheDrop = "cache-collapse"
)

// Defaults for the recorder window and the SLO objective.
const (
	DefaultWindow    = sim.Second
	DefaultObjective = 250 * sim.Millisecond
)

// Config tunes the recorder. Zero values select the documented defaults.
type Config struct {
	// Window is the retention horizon: rings keep data from the trailing
	// Window of simulated time (<= 0 means DefaultWindow).
	Window sim.Time
	// Detect arms the online detectors; without it the recorder only
	// retains (an end-of-run bundle can still be cut from the live ring).
	Detect bool
	// Objective is the latency SLO the burn detector breaches against
	// (<= 0 means DefaultObjective).
	Objective sim.Time
}

// The detector thresholds.
const (
	// burnThreshold is the breach fraction both burn windows must reach.
	burnThreshold float64 = 0.5
	// minCompletions gates the burn detector until the long window holds
	// this many completions, so a few slow queries at the start of a run
	// cannot trigger it. The long window carries the statistical mass;
	// the short window only has to agree in fraction.
	minCompletions = 8
	// queueRatio is the queue-divergence trigger: max/median per-node
	// outstanding requests. queueFloor is the minimum max depth before
	// the ratio is considered — an idle cluster's 1/0 split is not a hot
	// shard.
	queueRatio float64 = 4
	queueFloor         = 8
	// cacheDrop is the hit-rate collapse trigger: the short-window hit
	// rate falling this far below the long-window rate, evaluated only
	// once the short window saw cacheMinLookups lookups. Inert when no
	// cache provider is attached.
	cacheDrop       float64 = 0.25
	cacheMinLookups uint64  = 32
)

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Objective <= 0 {
		c.Objective = DefaultObjective
	}
	return c
}

// shortWindow and longWindow are the burn detector's two trailing
// windows. Requiring both windows to burn at once is the standard
// error-budget construction: the long window proves the breach is
// sustained, the short window proves it is still happening.
func (c Config) shortWindow() sim.Time { return c.Window / 8 }
func (c Config) longWindow() sim.Time  { return c.Window / 2 }

// barrierEvery throttles barrier-ring samples to at most one per this
// much frontier advance, bounding the ring at ~64 entries regardless of
// how fine the lookahead rounds are.
func (c Config) barrierEvery() sim.Time { return c.Window / 64 }

// ConfigView is the resolved configuration as it appears in a verdict.
type ConfigView struct {
	WindowMS        float64 `json:"window_ms"`
	Detect          bool    `json:"detect"`
	ObjectiveMS     float64 `json:"objective_ms"`
	ShortWindowMS   float64 `json:"short_window_ms"`
	LongWindowMS    float64 `json:"long_window_ms"`
	BurnThreshold   float64 `json:"burn_threshold"`
	MinCompletions  int     `json:"min_completions"`
	QueueRatio      float64 `json:"queue_ratio"`
	QueueFloor      int     `json:"queue_floor"`
	CacheDrop       float64 `json:"cache_drop"`
	CacheMinLookups uint64  `json:"cache_min_lookups"`
}

func (c Config) view() ConfigView {
	return ConfigView{
		WindowMS:        c.Window.Milliseconds(),
		Detect:          c.Detect,
		ObjectiveMS:     c.Objective.Milliseconds(),
		ShortWindowMS:   c.shortWindow().Milliseconds(),
		LongWindowMS:    c.longWindow().Milliseconds(),
		BurnThreshold:   burnThreshold,
		MinCompletions:  minCompletions,
		QueueRatio:      queueRatio,
		QueueFloor:      queueFloor,
		CacheDrop:       cacheDrop,
		CacheMinLookups: cacheMinLookups,
	}
}

// ObsPoint is one detector observation, evaluated at one query
// completion — the time series a verdict carries so the bundle shows the
// signals leading into the trigger, not just the final values.
type ObsPoint struct {
	TMS       float64 `json:"t_ms"`
	LatencyMS float64 `json:"latency_ms"`
	Breached  bool    `json:"breached"`
	// Burn fractions over the short/long trailing windows, and how many
	// completions each window held.
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	ShortN    int     `json:"short_n"`
	LongN     int     `json:"long_n"`
	// Per-node outstanding-queue shape at this completion.
	QueueMax    int     `json:"queue_max"`
	QueueMedian float64 `json:"queue_median"`
	QueueRatio  float64 `json:"queue_ratio"`
	// Cache hit rates over the short/long windows (-1 when no cache).
	HitShort float64 `json:"hit_short"`
	HitLong  float64 `json:"hit_long"`
}

// obsEntry is the ring-internal observation: the point plus the raw
// cumulative values trailing-window deltas are computed from.
type obsEntry struct {
	breached bool
	lookups  uint64
	hits     uint64
	pt       ObsPoint
}

// DomainStat is one domain's position in a barrier sample.
type DomainStat struct {
	ClockUS  float64 `json:"clock_us"`
	Pending  int     `json:"pending"`
	Mailbox  int     `json:"mailbox"`
	Executed uint64  `json:"executed"`
}

// BarrierSample is one retained barrier snapshot: the cluster frontier,
// the round counter, and every domain's clock/calendar/mailbox state.
type BarrierSample struct {
	FrontierUS float64      `json:"frontier_us"`
	Round      uint64       `json:"round"`
	Final      bool         `json:"final"`
	Domains    []DomainStat `json:"domains"`
}

// Verdict is the detector outcome a bundle is cut around. Detector is ""
// for an end-of-run dump (flight recording without a trigger).
type Verdict struct {
	Detector    string     `json:"detector"`
	Reason      string     `json:"reason,omitempty"`
	TriggerMS   float64    `json:"trigger_ms,omitempty"`
	Config      ConfigView `json:"config"`
	Completions uint64     `json:"completions"`
	Breaches    uint64     `json:"breaches"`
	// Observed is the detector observation at the trigger (or the last
	// one recorded, for an end-of-run dump).
	Observed *ObsPoint `json:"observed,omitempty"`
	// Series is the in-window observation history, oldest first.
	Series []ObsPoint `json:"series"`
	// RouterLoads is the per-node outstanding snapshot at the freeze.
	RouterLoads []int `json:"router_loads,omitempty"`
	// CacheLookups/CacheHits are the cumulative cache counters at the
	// freeze (present only when a cache provider was attached).
	CacheLookups uint64 `json:"cache_lookups,omitempty"`
	CacheHits    uint64 `json:"cache_hits,omitempty"`
}

// Recorder is the flight recorder: a qtrace.Observer (set it as the
// cluster's qtrace.Options.Observer) and a sim.BarrierObserver (pass it
// to MultiEngine.SetBarrierObserver after the metrics sampler). It belongs
// to one run: every call comes from that run's goroutine, which runs the
// front-end event domain and the coordinator barrier alike, so nothing
// takes a lock.
type Recorder struct {
	cfg Config

	loads   func(dst []int) []int
	cacheFn func() (lookups, hits uint64)
	scratch []int
	median  []int

	queries ring[int] // completed query IDs
	obs     ring[obsEntry]
	bars    ring[BarrierSample]

	completions uint64
	breaches    uint64
	frozen      bool
	verdict     *Verdict
}

// New creates a recorder with the given configuration (zero fields take
// defaults).
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:     cfg,
		queries: ring[int]{span: cfg.Window},
		obs:     ring[obsEntry]{span: cfg.Window},
		bars:    ring[BarrierSample]{span: cfg.Window},
	}
}

// SetLoadProvider attaches the per-node outstanding-queue source (the
// cluster router's LoadsInto). Called once per completion; the recorder
// passes a reused scratch slice, so providers should fill and return it.
func (r *Recorder) SetLoadProvider(fn func(dst []int) []int) { r.loads = fn }

// SetCacheProvider attaches the cumulative cache counter source (the
// cluster's cache counters: lookups and hits). Without one the
// cache-collapse detector is inert and verdicts omit cache state.
func (r *Recorder) SetCacheProvider(fn func() (lookups, hits uint64)) { r.cacheFn = fn }

// QueryDone implements qtrace.Observer: retain the completed query's ID,
// fold one detector observation into the ring, and — when armed — run the
// detectors. The first trigger freezes every ring.
func (r *Recorder) QueryDone(id int, at, latency sim.Time) {
	if r.frozen {
		return
	}
	r.queries.push(at, id)

	e := obsEntry{breached: latency > r.cfg.Objective}
	if r.cacheFn != nil {
		e.lookups, e.hits = r.cacheFn()
	}
	e.pt = r.observe(at, latency, e)
	r.obs.push(at, e)
	r.completions++
	if e.breached {
		r.breaches++
	}

	if !r.cfg.Detect {
		return
	}
	if name, reason := r.evaluate(e.pt); name != "" {
		r.trigger(name, reason, at, e.pt)
	}
}

// observe computes one detector observation from the ring state, with
// cur as the newest (not yet pushed) entry.
func (r *Recorder) observe(at, latency sim.Time, cur obsEntry) ObsPoint {
	pt := ObsPoint{
		TMS:       at.Milliseconds(),
		LatencyMS: latency.Milliseconds(),
		Breached:  cur.breached,
		HitShort:  -1,
		HitLong:   -1,
	}

	// Burn fractions: completions within the trailing windows, current
	// included. The ring spans Window ≥ LongWindow, so a backward scan
	// suffices; ring population is bounded by the window, keeping the scan
	// cheap.
	shortCut, longCut := at-r.cfg.shortWindow(), at-r.cfg.longWindow()
	shortN, shortB, longN, longB := 1, 0, 1, 0
	if cur.breached {
		shortB, longB = 1, 1
	}
	live := r.obs.live()
	for i := len(live) - 1; i >= 0; i-- {
		e := &live[i]
		if e.at < longCut {
			break
		}
		longN++
		if e.v.breached {
			longB++
		}
		if e.at >= shortCut {
			shortN++
			if e.v.breached {
				shortB++
			}
		}
	}
	pt.ShortN, pt.LongN = shortN, longN
	pt.BurnShort = float64(shortB) / float64(shortN)
	pt.BurnLong = float64(longB) / float64(longN)

	// Queue shape: per-node outstanding depths right now.
	if r.loads != nil {
		r.scratch = r.loads(r.scratch[:0])
		if n := len(r.scratch); n > 0 {
			r.median = append(r.median[:0], r.scratch...)
			sort.Ints(r.median)
			pt.QueueMax = r.median[n-1]
			pt.QueueMedian = float64(r.median[n/2])
			if n%2 == 0 {
				pt.QueueMedian = float64(r.median[n/2-1]+r.median[n/2]) / 2
			}
			if pt.QueueMedian > 0 {
				pt.QueueRatio = float64(pt.QueueMax) / pt.QueueMedian
			} else if pt.QueueMax > 0 {
				pt.QueueRatio = float64(pt.QueueMax)
			}
		}
	}

	// Cache hit rates over the trailing windows: deltas of the cumulative
	// counters against the newest entries preceding each window start.
	if r.cacheFn != nil {
		baseS := r.baseline(shortCut)
		baseL := r.baseline(longCut)
		pt.HitShort = rate(cur.lookups-baseS.lookups, cur.hits-baseS.hits)
		pt.HitLong = rate(cur.lookups-baseL.lookups, cur.hits-baseL.hits)
	}
	return pt
}

// baseline finds the newest ring entry strictly before cut (zero counters
// when the whole ring is inside the window).
func (r *Recorder) baseline(cut sim.Time) obsEntry {
	live := r.obs.live()
	for i := len(live) - 1; i >= 0; i-- {
		if live[i].at < cut {
			return live[i].v
		}
	}
	return obsEntry{}
}

// rate is hits/lookups, -1 when nothing was looked up.
func rate(lookups, hits uint64) float64 {
	if lookups == 0 {
		return -1
	}
	return float64(hits) / float64(lookups)
}

// evaluate runs the detectors in fixed priority order and returns the
// first that fires (empty name when none).
func (r *Recorder) evaluate(pt ObsPoint) (name, reason string) {
	c := r.cfg
	if pt.LongN >= minCompletions && pt.BurnShort >= burnThreshold && pt.BurnLong >= burnThreshold {
		return DetectorSLOBurn, fmt.Sprintf(
			"breach rate %.0f%% over %.1f ms and %.0f%% over %.1f ms, both >= %.0f%% of completions against the %.0f ms objective",
			100*pt.BurnShort, c.shortWindow().Milliseconds(),
			100*pt.BurnLong, c.longWindow().Milliseconds(),
			100*burnThreshold, c.Objective.Milliseconds())
	}
	if pt.QueueMax >= queueFloor && pt.QueueRatio >= queueRatio {
		return DetectorQueueSkew, fmt.Sprintf(
			"hot shard: max outstanding %d vs median %.1f (ratio %.1f >= %.1f)",
			pt.QueueMax, pt.QueueMedian, pt.QueueRatio, queueRatio)
	}
	if pt.HitLong >= 0 && pt.HitShort >= 0 && pt.HitLong-pt.HitShort >= cacheDrop {
		// Gate on short-window traffic so a lull does not read as collapse.
		// The caller pushed the current entry last, so obs is non-empty.
		live := r.obs.live()
		cur := live[len(live)-1]
		base := r.baseline(cur.at - c.shortWindow())
		if cur.v.lookups-base.lookups >= cacheMinLookups {
			return DetectorCacheDrop, fmt.Sprintf(
				"cache hit rate fell from %.0f%% (%.1f ms window) to %.0f%% (%.1f ms window), drop >= %.0f points",
				100*pt.HitLong, c.longWindow().Milliseconds(),
				100*pt.HitShort, c.shortWindow().Milliseconds(), 100*cacheDrop)
		}
	}
	return "", ""
}

// trigger freezes the rings and records the verdict. Exactly one trigger
// per run: every later completion and barrier sees frozen and returns.
func (r *Recorder) trigger(name, reason string, at sim.Time, pt ObsPoint) {
	r.verdict = r.buildVerdict(name, reason, at, &pt)
	r.frozen = true
}

// buildVerdict assembles the verdict from ring state (caller is on the
// simulation side, or post-run).
func (r *Recorder) buildVerdict(name, reason string, at sim.Time, pt *ObsPoint) *Verdict {
	v := &Verdict{
		Detector:    name,
		Reason:      reason,
		Config:      r.cfg.view(),
		Completions: r.completions,
		Breaches:    r.breaches,
		Observed:    pt,
		Series:      make([]ObsPoint, 0, len(r.obs.live())),
	}
	if name != "" {
		v.TriggerMS = at.Milliseconds()
	}
	for _, e := range r.obs.live() {
		v.Series = append(v.Series, e.v.pt)
	}
	if r.loads != nil {
		v.RouterLoads = append([]int(nil), r.loads(make([]int, 0, 8))...)
	}
	if r.cacheFn != nil {
		v.CacheLookups, v.CacheHits = r.cacheFn()
	}
	return v
}

// OnBarrier implements sim.BarrierObserver: retain one barrier snapshot
// whenever the frontier advanced Window/64 past the previous sample
// (always on the terminating barrier), unless frozen.
func (r *Recorder) OnBarrier(m *sim.MultiEngine, mailboxes []int, final bool) {
	if r.frozen {
		return
	}
	now := m.Now()
	if live := r.bars.live(); len(live) > 0 {
		last := live[len(live)-1].at
		if final {
			if now == last {
				return
			}
		} else if now < last+r.cfg.barrierEvery() {
			return
		}
	}
	s := BarrierSample{FrontierUS: now.Microseconds(), Round: m.Rounds(), Final: final}
	for i := 0; i < m.Domains(); i++ {
		d := m.Domain(i)
		mb := 0
		if i < len(mailboxes) {
			mb = mailboxes[i]
		}
		s.Domains = append(s.Domains, DomainStat{
			ClockUS:  d.Now().Microseconds(),
			Pending:  d.Pending(),
			Mailbox:  mb,
			Executed: d.Executed(),
		})
	}
	r.bars.push(now, s)
}

// Frozen reports whether a detector fired.
func (r *Recorder) Frozen() bool { return r.frozen }

// Window reports the retained horizon the bundle covers: it ends at the
// newest retained event (completion or barrier) and spans the configured
// window, clamped at time zero.
func (r *Recorder) Window() (from, to sim.Time) {
	if qs := r.queries.live(); len(qs) > 0 {
		to = qs[len(qs)-1].at
	}
	if bs := r.bars.live(); len(bs) > 0 {
		to = max(to, bs[len(bs)-1].at)
	}
	return max(to-r.cfg.Window, 0), to
}

// WindowQueries looks the retained query IDs up in l, the log whose
// completions the recorder observed, and returns those queries in QueryID
// order, skipping IDs l does not know. They are l's own queries, so a
// bundle's trace renders them as a full run's trace renders the log.
func (r *Recorder) WindowQueries(l *qtrace.Log) []*qtrace.Query {
	ids := r.queries.values()
	slices.Sort(ids)
	out := make([]*qtrace.Query, 0, len(ids))
	for _, id := range ids {
		if q := l.Query(id); q != nil {
			out = append(out, q)
		}
	}
	return out
}

// BarrierWindow returns the retained barrier samples, oldest first.
func (r *Recorder) BarrierWindow() []BarrierSample { return r.bars.values() }

// Verdict returns the frozen verdict when a detector fired, or assembles
// an end-of-run verdict (Detector "") over the live ring. Call after the
// run drains.
func (r *Recorder) Verdict() Verdict {
	v := r.verdict
	if v == nil {
		var last *ObsPoint
		if live := r.obs.live(); len(live) > 0 {
			p := live[len(live)-1].v.pt
			last = &p
		}
		nv := r.buildVerdict("", "", 0, nil)
		nv.Observed = last
		v = nv
	}
	out := *v
	out.Completions = r.completions
	out.Breaches = r.breaches
	return out
}
