package flight

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/qtrace"
	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

// feed plays n completions through a log observed by the recorder, one
// arrival per millisecond, using lat(i) as each query's service time.
func feed(r *Recorder, n int, lat func(i int) sim.Time) *qtrace.Log {
	l := qtrace.NewLog(qtrace.Options{Observer: r})
	for i := 0; i < n; i++ {
		at := ms(i)
		l.Submitted(i, i, at)
		l.Completed(i, at+lat(i))
	}
	return l
}

// TestConfigDefaults: zero fields resolve to the documented defaults, the
// burn windows derive from the retention horizon, and a verdict's config
// block reports every resolved value.
func TestConfigDefaults(t *testing.T) {
	want := ConfigView{
		WindowMS: DefaultWindow.Milliseconds(), ObjectiveMS: DefaultObjective.Milliseconds(),
		ShortWindowMS: 125, LongWindowMS: 500,
		BurnThreshold: 0.5, MinCompletions: 8, QueueRatio: 4, QueueFloor: 8,
		CacheDrop: 0.25, CacheMinLookups: 32,
	}
	if got := New(Config{}).Verdict().Config; got != want {
		t.Fatalf("default config %+v, want %+v", got, want)
	}
	want.WindowMS, want.ShortWindowMS, want.LongWindowMS, want.Detect = 100, 12.5, 50, true
	if got := New(Config{Window: ms(100), Detect: true}).Verdict().Config; got != want {
		t.Fatalf("custom window did not propagate: %+v, want %+v", got, want)
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
	v := r.Verdict()
	if !r.Frozen() || v.Detector != DetectorSLOBurn || v.TriggerMS == 0 {
		t.Fatalf("frozen %v, verdict = %+v, want frozen by %s", r.Frozen(), v, DetectorSLOBurn)
	}
	// LongWindow = 50 ms: the breach fraction over it crosses 50% once
	// ~25 breached completions accumulated, i.e. well before the feed ends —
	// the frozen counters must show fewer completions than were offered.
	if v.Completions >= 80 {
		t.Fatalf("freeze did not stop the counters: %d completions", v.Completions)
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
	if r.Frozen() {
		t.Fatalf("blip froze the recorder: %+v", r.Verdict())
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
	v := r.Verdict()
	if !r.Frozen() || v.Detector != DetectorQueueSkew {
		t.Fatalf("frozen %v, verdict = %+v, want %s", r.Frozen(), v, DetectorQueueSkew)
	}
	if v.Observed.QueueMax != 40 || v.Observed.QueueMedian != 2.5 || v.Observed.QueueRatio != 16 {
		t.Fatalf("observed queue shape %+v", v.Observed)
	}
	if len(v.RouterLoads) != 4 || v.RouterLoads[0] != 40 {
		t.Fatalf("verdict loads = %v", v.RouterLoads)
	}

	flat := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	flat.SetLoadProvider(func(dst []int) []int { return append(dst, 40, 38, 41, 39) })
	feed(flat, 4, func(int) sim.Time { return ms(1) })
	if flat.Frozen() {
		t.Fatal("uniform deep queues are not divergence")
	}

	shallow := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	shallow.SetLoadProvider(func(dst []int) []int { return append(dst, 4, 0, 0, 0) })
	feed(shallow, 4, func(int) sim.Time { return ms(1) })
	if shallow.Frozen() {
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
	l := qtrace.NewLog(qtrace.Options{Observer: r})
	for i := 0; i < 80; i++ {
		lookups += 10
		if i < 50 {
			hits += 9 // 90% regime
		} // then total miss
		at := ms(i)
		l.Submitted(i, i, at)
		l.Completed(i, at+ms(1))
	}
	v := r.Verdict()
	if !r.Frozen() || v.Detector != DetectorCacheDrop {
		t.Fatalf("frozen %v, verdict = %+v, want %s", r.Frozen(), v, DetectorCacheDrop)
	}
	if v.Observed.HitShort >= v.Observed.HitLong || v.Observed.HitLong < 0.25 {
		t.Fatalf("observed hit rates %v/%v not a collapse", v.Observed.HitShort, v.Observed.HitLong)
	}
	if v.CacheLookups == 0 || v.CacheLookups <= v.CacheHits {
		t.Fatalf("verdict cache counters %d/%d", v.CacheLookups, v.CacheHits)
	}

	// Same completion stream, no provider: hit rates report -1, no trigger.
	inert := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(50)})
	feed(inert, 80, func(int) sim.Time { return ms(1) })
	if inert.Frozen() {
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
	l := feed(r, 100, func(int) sim.Time { return ms(20) }) // every one breaches
	v := r.Verdict()
	if r.Frozen() || v.Detector != "" {
		t.Fatalf("disarmed recorder froze: %+v", v)
	}
	if v.Completions != 100 || v.Breaches != 100 {
		t.Fatalf("counters = %d/%d, want 100/100", v.Completions, v.Breaches)
	}
	retained := len(r.WindowQueries(l))
	if retained >= 100 || retained == 0 {
		t.Fatalf("retained %d of 100 with a 10 ms window", retained)
	}
	if v.Detector != "" || v.TriggerMS != 0 {
		t.Fatalf("end-of-run verdict = %+v", v)
	}
	if len(v.Series) == 0 || v.Observed == nil {
		t.Fatalf("end-of-run verdict lost its series: %+v", v)
	}
	// The observation ring slides with the retention window.
	if len(v.Series) > retained+1 {
		t.Fatalf("series %d points vs %d retained queries", len(v.Series), retained)
	}
}

// runEngine drives a real two-domain run observed by obs: a CrossLink
// bounds the lookahead to 100 µs so barrier rounds advance in small steps,
// and self-rescheduling ticks keep both domains busy for 100 ms.
func runEngine(obs ...sim.BarrierObserver) {
	m := sim.NewMultiEngine(2)
	sim.NewCrossLink(m.Domain(0), "link", 1e9, 100*sim.Microsecond)
	for i := 0; i < 2; i++ {
		d := m.Domain(i)
		var tick func()
		tick = func() {
			if d.Now() < ms(100) {
				d.Schedule(100*sim.Microsecond, tick)
			}
		}
		d.At(0, tick)
	}
	m.SetBarrierObserver(obs...)
	m.Run()
}

// TestBarrierRing: barrier samples honour the Window/64 throttle, the
// final barrier is always captured, samples slide out of the window, and
// a freeze stops sampling.
func TestBarrierRing(t *testing.T) {
	r := New(Config{Window: ms(64)})
	runEngine(r)
	bars := r.BarrierWindow()
	if len(bars) == 0 {
		t.Fatal("no barrier samples retained")
	}
	// 64 ms window at 1 ms spacing → at most ~66 samples survive
	// (window edge plus the terminating barrier).
	if len(bars) > 67 {
		t.Fatalf("throttle failed: %d samples in a 64-sample window", len(bars))
	}
	// The run ends at the 100 ms frontier; the ring's newest sample must
	// sit there — either the terminating barrier or the same-instant round
	// sample it deduplicated against.
	last := bars[len(bars)-1]
	if last.FrontierUS != ms(100).Microseconds() {
		t.Fatalf("newest sample at %v µs, run ended at 100 ms: %+v", last.FrontierUS, last)
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
	if span := last.FrontierUS - bars[0].FrontierUS; span > ms(64).Microseconds() {
		t.Fatalf("ring kept %v µs of history, window is 64 ms", span)
	}

	// A frozen recorder never samples.
	frozen := New(Config{Window: ms(64)})
	frozen.frozen = true
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
	cfg := Config{Window: ms(64)}
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
	l := qtrace.NewLog(qtrace.Options{Observer: r})
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
// stays); older IDs are evicted as time moves.
func TestRecorderWindowSlides(t *testing.T) {
	r, l := feedTimelines(ms(10), 100)
	// Newest completion at 101 ms; retained: Done >= 91 ms → qids 89..99.
	qs := r.WindowQueries(l)
	if len(qs) != 11 {
		t.Fatalf("retained %d queries, want 11", len(qs))
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
	r2, l2 := feedTimelines(ms(1), 500)
	if got := r2.WindowQueries(l2); len(got) != 2 || got[0].ID != 498 || got[1].ID != 499 {
		t.Fatalf("1ms window retained %d queries, want qids 498,499", len(got))
	}
}

// TestWindowQueriesLookUpIDs: the window is read from the log when the
// bundle is cut — retained IDs come back in ID order as the log's own
// queries, with every interval the log holds by then, and IDs the log
// does not know are skipped.
func TestWindowQueriesLookUpIDs(t *testing.T) {
	r := New(Config{})
	l := qtrace.NewLog(qtrace.Options{Observer: r})
	for _, id := range []int{5, 2} {
		l.Submitted(id, id, 0)
		l.Add(id, qtrace.Interval{Phase: qtrace.PhaseExec, Start: 0, End: ms(1)})
	}
	l.Completed(5, ms(1))
	r.QueryDone(9, ms(2), ms(2)) // a completion the log never saw
	l.Completed(2, ms(3))
	// A late leg lands after its query completed.
	l.Add(5, qtrace.Interval{Phase: qtrace.PhaseXfer, Start: ms(1), End: ms(4)})

	qs := r.WindowQueries(l)
	if len(qs) != 2 || qs[0] != l.Query(2) || qs[1] != l.Query(5) {
		t.Fatalf("window queries %v, want the log's queries 2 and 5", qs)
	}
	if n := len(qs[1].Intervals); n != 2 {
		t.Fatalf("query 5 shows %d intervals, want both the log holds", n)
	}
	if n := len(r.WindowQueries(qtrace.NewLog(qtrace.Options{}))); n != 0 {
		t.Fatalf("a log that knows no retained ID returned %d queries", n)
	}
}

// TestRecorderWindowQueries: the retained queries come back in QueryID
// order whatever order they completed in, each the log's own query —
// what a bundle's trace renders.
func TestRecorderWindowQueries(t *testing.T) {
	r := New(Config{Window: ms(10)})
	full := qtrace.NewLog(qtrace.Options{Observer: r})
	// Query i arrives at i ms and runs 5 ms when i%3 == 0, else 1 ms, so
	// completions interleave out of QueryID order.
	type done struct {
		id int
		at sim.Time
	}
	var order []done
	for i := 0; i < 100; i++ {
		at, run := ms(i), ms(1)
		if i%3 == 0 {
			run = ms(5)
		}
		full.Submitted(i, i, at)
		order = append(order, done{i, at + run})
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })
	var completed []int
	for _, d := range order {
		full.Completed(d.id, d.at)
		completed = append(completed, d.id)
	}

	qs := r.WindowQueries(full)
	if len(qs) == 0 {
		t.Fatal("no queries in the window")
	}
	in := map[int]bool{}
	for i, q := range qs {
		in[q.ID] = true
		if i > 0 && qs[i-1].ID >= q.ID {
			t.Fatalf("window queries out of QueryID order at %d: %d then %d", i, qs[i-1].ID, q.ID)
		}
		if q != full.Query(q.ID) {
			t.Fatalf("window query %d is not the log's own", q.ID)
		}
	}
	// The sort is exercised: the retained queries completed out of ID order.
	var byCompletion []int
	for _, id := range completed {
		if in[id] {
			byCompletion = append(byCompletion, id)
		}
	}
	if sort.IntsAreSorted(byCompletion) {
		t.Fatalf("retained queries completed in ID order %v; the test needs them interleaved", byCompletion)
	}
	if n := len(New(Config{}).WindowQueries(full)); n != 0 {
		t.Fatalf("an empty recorder returned %d window queries", n)
	}
}
