package flight

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/qtrace"
	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

// feed plays n completions through a log observed by the recorder, one
// arrival per millisecond, using lat(i) as each query's service time.
func feed(r *Recorder, n int, lat func(i int) sim.Time) *qtrace.Log {
	l := qtrace.NewLog(qtrace.Options{Observers: []qtrace.Observer{r}})
	r.AttachLog(l)
	for i := 0; i < n; i++ {
		at := ms(i)
		l.Submitted(i, i, at)
		l.Completed(i, at+lat(i))
	}
	return l
}

// TestConfigDefaults: zero fields resolve to the documented defaults and
// the windows derive from the configured retention horizon.
func TestConfigDefaults(t *testing.T) {
	c := New(Config{}).Config()
	if c.Window != DefaultWindow || c.Objective != DefaultObjective {
		t.Fatalf("window/objective = %v/%v, want defaults", c.Window, c.Objective)
	}
	if c.ShortWindow != c.Window/8 || c.LongWindow != c.Window/2 || c.BarrierEvery != c.Window/64 {
		t.Fatalf("derived windows %v/%v/%v inconsistent with %v", c.ShortWindow, c.LongWindow, c.BarrierEvery, c.Window)
	}
	if c.BurnThreshold != 0.5 || c.MinCompletions != 8 || c.QueueRatio != 4 ||
		c.QueueFloor != 8 || c.CacheDrop != 0.25 || c.CacheMinLookups != 32 {
		t.Fatalf("detector defaults off: %+v", c)
	}
	c2 := New(Config{Window: 100 * sim.Millisecond}).Config()
	if c2.ShortWindow != ms(100)/8 || c2.LongWindow != ms(50) {
		t.Fatalf("custom window did not propagate: %+v", c2)
	}
}

// TestBurnDetectorFreezesOnce: a sustained latency regression past the
// objective fires slo-burn exactly once; the freeze stops retention,
// counting, and any further detection.
func TestBurnDetectorFreezesOnce(t *testing.T) {
	r := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	feed(r, 80, func(i int) sim.Time {
		if i < 40 {
			return ms(1) // healthy baseline
		}
		return ms(20) // sustained breach
	})
	st := r.Status()
	if !st.Frozen || st.TriggerDetector != DetectorSLOBurn {
		t.Fatalf("status = %+v, want frozen by %s", st, DetectorSLOBurn)
	}
	if n := st.Detections[DetectorSLOBurn]; n != 1 {
		t.Fatalf("detections = %v, want exactly one", st.Detections)
	}
	// LongWindow = 50 ms: the breach fraction over it crosses 50% once
	// ~25 breached completions accumulated, i.e. well before the feed ends —
	// the frozen counters must show fewer completions than were offered.
	if st.Completions >= 80 {
		t.Fatalf("freeze did not stop the counters: %d completions", st.Completions)
	}
	v := r.Verdict()
	if v.Detector != DetectorSLOBurn || v.TriggerMS == 0 {
		t.Fatalf("verdict = %+v", v)
	}
	if len(v.Series) == 0 || v.Observed == nil || !v.Observed.Breached {
		t.Fatalf("verdict carries no triggering series: %+v", v)
	}
	if v.Observed.BurnShort < 0.5 || v.Observed.BurnLong < 0.5 {
		t.Fatalf("observed burn %v/%v below threshold at trigger", v.Observed.BurnShort, v.Observed.BurnLong)
	}
	if !strings.Contains(v.Reason, "breach rate") {
		t.Fatalf("reason = %q", v.Reason)
	}
	// The series is the ring at the freeze: its last point is the trigger.
	if got := v.Series[len(v.Series)-1]; got != *v.Observed {
		t.Fatalf("series tail %+v != observed %+v", got, *v.Observed)
	}
	// Window ends at the triggering completion.
	_, to := r.Window()
	if to.Milliseconds() != v.TriggerMS {
		t.Fatalf("window ends at %v, trigger at %v ms", to, v.TriggerMS)
	}
}

// TestBurnNeedsBothWindows: a short blip that breaches the short window
// but not the long one must not trigger.
func TestBurnNeedsBothWindows(t *testing.T) {
	r := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	feed(r, 80, func(i int) sim.Time {
		if i >= 40 && i < 50 {
			return ms(20) // 10 ms blip ≈ short window, well under half the long window
		}
		return ms(1)
	})
	if st := r.Status(); st.Frozen {
		t.Fatalf("blip froze the recorder: %+v", st)
	}
}

// TestQueueDivergenceDetector: a hot shard (max far above median
// outstanding) triggers queue-divergence; a uniformly loaded cluster at
// the same depth does not.
func TestQueueDivergenceDetector(t *testing.T) {
	hot := []int{40, 2, 3, 2}
	r := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	r.SetLoadProvider(func(dst []int) []int { return append(dst, hot...) })
	feed(r, 4, func(int) sim.Time { return ms(1) })
	st := r.Status()
	if !st.Frozen || st.TriggerDetector != DetectorQueueSkew {
		t.Fatalf("status = %+v, want %s", st, DetectorQueueSkew)
	}
	v := r.Verdict()
	if v.Observed.QueueMax != 40 || v.Observed.QueueMedian != 2.5 || v.Observed.QueueRatio != 16 {
		t.Fatalf("observed queue shape %+v", v.Observed)
	}
	if len(v.RouterLoads) != 4 || v.RouterLoads[0] != 40 {
		t.Fatalf("verdict loads = %v", v.RouterLoads)
	}

	flat := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	flat.SetLoadProvider(func(dst []int) []int { return append(dst, 40, 38, 41, 39) })
	feed(flat, 4, func(int) sim.Time { return ms(1) })
	if flat.Status().Frozen {
		t.Fatal("uniform deep queues are not divergence")
	}

	shallow := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	shallow.SetLoadProvider(func(dst []int) []int { return append(dst, 4, 0, 0, 0) })
	feed(shallow, 4, func(int) sim.Time { return ms(1) })
	if shallow.Status().Frozen {
		t.Fatal("skew below the queue floor must not trigger")
	}
}

// TestCacheCollapseDetector: the short-window hit rate falling far below
// the long-window rate triggers cache-collapse once enough short-window
// lookups accumulated; without a provider the detector is inert.
func TestCacheCollapseDetector(t *testing.T) {
	r := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(50)})
	var lookups, hits uint64
	r.SetCacheProvider(func() (uint64, uint64) { return lookups, hits })
	l := qtrace.NewLog(qtrace.Options{Observers: []qtrace.Observer{r}})
	r.AttachLog(l)
	for i := 0; i < 80; i++ {
		lookups += 10
		if i < 50 {
			hits += 9 // 90% regime
		} // then total miss
		at := ms(i)
		l.Submitted(i, i, at)
		l.Completed(i, at+ms(1))
	}
	st := r.Status()
	if !st.Frozen || st.TriggerDetector != DetectorCacheDrop {
		t.Fatalf("status = %+v, want %s", st, DetectorCacheDrop)
	}
	v := r.Verdict()
	if v.Observed.HitShort >= v.Observed.HitLong || v.Observed.HitLong < 0.25 {
		t.Fatalf("observed hit rates %v/%v not a collapse", v.Observed.HitShort, v.Observed.HitLong)
	}
	if v.CacheLookups == 0 || v.CacheLookups <= v.CacheHits {
		t.Fatalf("verdict cache counters %d/%d", v.CacheLookups, v.CacheHits)
	}

	// Same completion stream, no provider: hit rates report -1, no trigger.
	inert := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(50)})
	feed(inert, 80, func(int) sim.Time { return ms(1) })
	if inert.Status().Frozen {
		t.Fatal("cache detector fired without a cache provider")
	}
	if pt := inert.Verdict().Observed; pt.HitShort != -1 || pt.HitLong != -1 {
		t.Fatalf("no-cache hit rates = %v/%v, want -1", pt.HitShort, pt.HitLong)
	}
}

// TestDisarmedRecorderOnlyRetains: without Detect the recorder never
// freezes, keeps a sliding window, and the end-of-run verdict has no
// detector but a full series.
func TestDisarmedRecorderOnlyRetains(t *testing.T) {
	r := New(Config{Window: 10 * sim.Millisecond, Objective: ms(5)})
	feed(r, 100, func(int) sim.Time { return ms(20) }) // every one breaches
	st := r.Status()
	if st.Frozen || len(st.Detections) != 0 {
		t.Fatalf("disarmed recorder froze: %+v", st)
	}
	if st.Completions != 100 || st.Breaches != 100 {
		t.Fatalf("counters = %d/%d, want 100/100", st.Completions, st.Breaches)
	}
	if st.Retained >= 100 || st.Retained == 0 {
		t.Fatalf("retained %d of 100 with a 10 ms window", st.Retained)
	}
	v := r.Verdict()
	if v.Detector != "" || v.TriggerMS != 0 {
		t.Fatalf("end-of-run verdict = %+v", v)
	}
	if len(v.Series) == 0 || v.Observed == nil {
		t.Fatalf("end-of-run verdict lost its series: %+v", v)
	}
	// The observation ring slides with the retention window.
	if int64(len(v.Series)) > int64(st.Retained)+1 {
		t.Fatalf("series %d points vs %d retained queries", len(v.Series), st.Retained)
	}
	wl := r.WindowLog()
	if int(wl.CompletedCount()) != st.Retained {
		t.Fatalf("window log %d completions, status retained %d", wl.CompletedCount(), st.Retained)
	}
}

// runEngine drives a real two-domain run observed by obs: a CrossLink
// bounds the lookahead to 100 µs so barrier rounds advance in small steps,
// and self-rescheduling ticks keep both domains busy for 30 ms.
func runEngine(obs ...sim.BarrierObserver) {
	m := sim.NewMultiEngine(2)
	sim.NewCrossLink(m.Domain(0), "link", 1e9, 100*sim.Microsecond)
	for i := 0; i < 2; i++ {
		d := m.Domain(i)
		var tick func()
		tick = func() {
			if d.Now() < ms(30) {
				d.Schedule(100*sim.Microsecond, tick)
			}
		}
		d.At(0, tick)
	}
	m.SetBarrierObserver(obs...)
	m.Run()
}

// TestBarrierRing: barrier samples honour the BarrierEvery throttle, the
// final barrier is always captured, samples slide out of the window, and
// a freeze stops sampling.
func TestBarrierRing(t *testing.T) {
	r := New(Config{Window: 10 * sim.Millisecond, BarrierEvery: ms(1)})
	runEngine(r)
	bars := r.BarrierWindow()
	if len(bars) == 0 {
		t.Fatal("no barrier samples retained")
	}
	// 10 ms window at 1 ms spacing → at most ~12 samples survive
	// (window edge plus the terminating barrier).
	if len(bars) > 13 {
		t.Fatalf("throttle failed: %d samples in a 10-sample window", len(bars))
	}
	// The run ends at the 30 ms frontier; the ring's newest sample must
	// sit there — either the terminating barrier or the same-instant round
	// sample it deduplicated against.
	last := bars[len(bars)-1]
	if last.FrontierUS != ms(30).Microseconds() {
		t.Fatalf("newest sample at %v µs, run ended at 30 ms: %+v", last.FrontierUS, last)
	}
	for i := 1; i < len(bars)-1; i++ {
		if gap := bars[i].FrontierUS - bars[i-1].FrontierUS; gap < ms(1).Microseconds() {
			t.Fatalf("samples %d,%d only %v µs apart", i-1, i, gap)
		}
	}
	if len(last.Domains) != 2 || last.Domains[0].ClockUS == 0 || last.Domains[0].Executed == 0 {
		t.Fatalf("sample missing domain stats: %+v", last)
	}
	// Ring slid: nothing older than the window before the last sample.
	if span := last.FrontierUS - bars[0].FrontierUS; span > ms(10).Microseconds() {
		t.Fatalf("ring kept %v µs of history, window is 10 ms", span)
	}

	// A frozen recorder never samples.
	frozen := New(Config{Window: 10 * sim.Millisecond, BarrierEvery: ms(1)})
	frozen.mu.Lock()
	frozen.frozen = true
	frozen.mu.Unlock()
	runEngine(frozen)
	if n := len(frozen.BarrierWindow()); n != 0 {
		t.Fatalf("frozen recorder sampled %d barriers", n)
	}
}

// TestBarrierTee: the recorder shares the barrier hook with other
// observers, as it does with the metrics sampler in a cluster run. Its
// ring is identical to a run where it observes alone, and the observers
// around it are notified in argument order at every barrier.
func TestBarrierTee(t *testing.T) {
	cfg := Config{Window: 10 * sim.Millisecond, BarrierEvery: ms(1)}
	alone := New(cfg)
	runEngine(alone)

	var order []string
	a := obsFunc(func() { order = append(order, "a") })
	b := obsFunc(func() { order = append(order, "b") })
	shared := New(cfg)
	runEngine(a, shared, b)
	want := alone.BarrierWindow()
	if len(want) == 0 {
		t.Fatal("no barrier samples retained")
	}
	if got := shared.BarrierWindow(); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared hook changed the barrier ring:\n shared: %+v\n alone:  %+v", got, want)
	}
	if len(order) == 0 || len(order)%2 != 0 {
		t.Fatalf("observers saw %d callbacks, want a positive even count", len(order))
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "a" || order[i+1] != "b" {
			t.Fatalf("barrier %d notified %v, want a then b", i/2, order[i:i+2])
		}
	}
}

// obsFunc adapts a func to sim.BarrierObserver for ordering checks.
type obsFunc func()

func (f obsFunc) OnBarrier(*sim.MultiEngine, []int, bool) { f() }

// feedTimelines plays n queries through a log observed by a recorder with
// the given window, one completion per millisecond, each with a 2 ms exec
// interval.
func feedTimelines(window sim.Time, n int) (*Recorder, *qtrace.Log) {
	r := New(Config{Window: window})
	l := qtrace.NewLog(qtrace.Options{Observers: []qtrace.Observer{r}})
	r.AttachLog(l)
	for i := 0; i < n; i++ {
		at := ms(i)
		l.Submitted(i, i, at)
		l.Add(i, qtrace.Interval{Phase: qtrace.PhaseExec, Stage: "FE", Level: "OnChip", Detail: "onchip0", Start: at, End: at + ms(2)})
		l.Completed(i, at+ms(2))
	}
	return r, l
}

// TestRecorderWindowSlides: only completions within the trailing window
// of the newest one are retained (a completion exactly window behind it
// stays); older copies are evicted as time moves.
func TestRecorderWindowSlides(t *testing.T) {
	r, _ := feedTimelines(ms(10), 100)
	// Newest completion at 101 ms; retained: Done >= 91 ms → qids 89..99.
	qs := r.WindowQueries()
	if len(qs) != 11 || r.Status().Retained != 11 {
		t.Fatalf("retained %d queries (status %d), want 11", len(qs), r.Status().Retained)
	}
	from, to := r.Window()
	if to != ms(101) || from != ms(91) {
		t.Fatalf("window = [%v, %v], want [91ms, 101ms]", from, to)
	}
	if qs[0].ID != 89 || qs[len(qs)-1].ID != 99 {
		t.Fatalf("retained qids %d..%d, want 89..99", qs[0].ID, qs[len(qs)-1].ID)
	}
	for _, q := range qs {
		if len(q.Intervals) != 1 || !q.Completed() {
			t.Fatalf("query %d retained without its timeline: %+v", q.ID, q)
		}
	}

	// The compaction path must not lose or reorder entries (head crossed
	// the >64 threshold many times above); an explicitly long run checks
	// a second regime.
	r2, _ := feedTimelines(ms(1), 500)
	if got := r2.WindowQueries(); len(got) != 2 || got[0].ID != 498 || got[1].ID != 499 {
		t.Fatalf("1ms window retained %d queries, want qids 498,499", len(got))
	}
}

// TestRecorderCopiesAreIndependent: the retained copy must not alias the
// live log's interval storage — DropTimelines or later mutation of the
// log cannot reach into an already-cut bundle.
func TestRecorderCopiesAreIndependent(t *testing.T) {
	r := New(Config{})
	l := qtrace.NewLog(qtrace.Options{Observers: []qtrace.Observer{r}})
	r.AttachLog(l)
	l.Submitted(0, 0, 0)
	l.Add(0, qtrace.Interval{Phase: qtrace.PhaseExec, Start: 0, End: ms(1)})
	l.Completed(0, ms(1))
	l.Query(0).Intervals[0].Phase = "mutated"
	l.Query(0).Attribution[0].Phase = "mutated"
	q := r.WindowQueries()[0]
	if q.Intervals[0].Phase != qtrace.PhaseExec || q.Attribution[0].Phase != qtrace.PhaseExec {
		t.Fatalf("retained copy aliases the live log: %+v", q)
	}

	// Completions without a log, or of queries the log never saw, feed
	// the detectors but retain nothing — and do not panic.
	detached := New(Config{})
	detached.QueryDone(0, 0, 0)
	if n := len(detached.WindowQueries()); n != 0 {
		t.Fatalf("detached recorder retained %d queries", n)
	}
	r.QueryDone(999, ms(1), 0)
	if n := len(r.WindowQueries()); n != 1 {
		t.Fatalf("unknown qid retained: %d queries", n)
	}
}

// TestRecorderWindowLog: the rebuilt window log is a self-contained Log —
// query table, timelines, recomputed attributions and latency sketch all
// restricted to the retained set.
func TestRecorderWindowLog(t *testing.T) {
	r, full := feedTimelines(ms(10), 100)
	wl := r.WindowLog()
	if got := wl.CompletedCount(); got != 11 {
		t.Fatalf("window log completed %d, want 11", got)
	}
	if got := wl.Sketch().Count(); got != 11 {
		t.Fatalf("window sketch count %d, want 11", got)
	}
	for _, q := range wl.Queries() {
		orig := full.Query(q.ID)
		if q.Arrival != orig.Arrival || q.Done != orig.Done || q.Job != orig.Job {
			t.Fatalf("window query %d bounds diverged: %+v vs %+v", q.ID, q, orig)
		}
		if len(q.Intervals) != len(orig.Intervals) {
			t.Fatalf("window query %d lost intervals", q.ID)
		}
		if q.Dominant() != orig.Dominant() {
			t.Fatalf("window query %d attribution diverged", q.ID)
		}
	}
	if empty := New(Config{}).WindowLog(); empty.CompletedCount() != 0 {
		t.Fatal("an empty recorder should rebuild an empty log")
	}
}
