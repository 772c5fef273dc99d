package qtrace

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

// TestLogLifecycle: submit → intervals → complete drives the query table
// and the latencies.
func TestLogLifecycle(t *testing.T) {
	l := NewLog(Options{})
	l.Submitted(0, 7, ms(10))
	l.Add(0, Interval{Phase: PhaseQueue, Stage: "SL", Level: "NearMem", Detail: "no-idle-instance", Start: ms(10), End: ms(14)})
	l.Add(0, Interval{Phase: PhaseExec, Stage: "SL", Level: "NearMem", Detail: "nearmem0", Start: ms(14), End: ms(20)})
	if l.Latencies().Count() != 0 || l.Query(0).Completed() {
		t.Fatal("query completed prematurely")
	}
	l.Completed(0, ms(20))
	q := l.Query(0)
	if !q.Completed() || q.Latency() != ms(10) || q.Job != 7 {
		t.Fatalf("query state wrong: done=%v lat=%v job=%d", q.Completed(), q.Latency(), q.Job)
	}
	if lat := l.Latencies(); lat.Count() != 1 || lat.Quantile(0.5) != ms(10) {
		t.Fatalf("latencies wrong: %d of them, p50 %v", lat.Count(), lat.Quantile(0.5))
	}
	dom := q.Dominant()
	if dom.Phase != PhaseExec || dom.Stage != "SL" {
		t.Fatalf("dominant = %+v, want exec/SL", dom)
	}
	if got := dom.Share; got < 0.59 || got > 0.61 {
		t.Fatalf("dominant share = %v, want 0.6", got)
	}
}

// TestAttributionMergesOverlaps: parallel tasks in the same phase count
// once — the union, not the sum — so shares stay within [0, 1].
func TestAttributionMergesOverlaps(t *testing.T) {
	l := NewLog(Options{})
	l.Submitted(0, 0, ms(0))
	// Four parallel queue waits [0,8] on the same stage/level, plus a
	// disjoint one [9,10]: union = 9 ms of a 10 ms query.
	for i := 0; i < 4; i++ {
		l.Add(0, Interval{Phase: PhaseQueue, Stage: "SL", Level: "NearMem", Start: ms(0), End: ms(8)})
	}
	l.Add(0, Interval{Phase: PhaseQueue, Stage: "SL", Level: "NearMem", Start: ms(9), End: ms(10)})
	l.Completed(0, ms(10))
	dom := l.Query(0).Dominant()
	if dom.Covered != ms(9) {
		t.Fatalf("union coverage = %v, want 9ms", dom.Covered)
	}
	if dom.Share != 0.9 {
		t.Fatalf("share = %v, want 0.9", dom.Share)
	}
}

// TestAttributionClampsToWindow: intervals leaking past the query window
// (a transfer completing after the host interrupt would be a model bug,
// but attribution must stay sane) are clamped.
func TestAttributionClampsToWindow(t *testing.T) {
	l := NewLog(Options{})
	l.Submitted(0, 0, ms(5))
	l.Add(0, Interval{Phase: PhaseXfer, Stage: "RR", Level: "CPU", Start: ms(0), End: ms(30)})
	l.Completed(0, ms(15))
	dom := l.Query(0).Dominant()
	if dom.Covered != ms(10) || dom.Share != 1 {
		t.Fatalf("clamped coverage = %v share = %v, want 10ms / 1.0", dom.Covered, dom.Share)
	}
}

// TestDropTimelines: the latency-only log keeps no timeline and no
// attribution, while the query's arrival and completion, and so its
// latency, survive.
func TestDropTimelines(t *testing.T) {
	l := NewLog(Options{DropTimelines: true})
	l.Submitted(0, 0, ms(1))
	l.Add(0, Interval{Phase: PhaseExec, Stage: "FE", Level: "OnChip", Start: ms(1), End: ms(4)})
	l.Completed(0, ms(4))
	q := l.Query(0)
	if q.Intervals != nil || q.Attribution != nil || q.Dominant() != (Attribution{}) {
		t.Fatalf("DropTimelines kept %d intervals and %d attributions", len(q.Intervals), len(q.Attribution))
	}
	if !q.Completed() || q.Arrival != ms(1) || q.Done != ms(4) || q.Latency() != ms(3) {
		t.Fatalf("query bounds lost: arrival %v done %v latency %v", q.Arrival, q.Done, q.Latency())
	}
	if lat := l.Latencies(); lat.Count() != 1 || lat.Max() != ms(3) {
		t.Fatalf("log holds %d latencies, max %v; want one of 3ms", lat.Count(), lat.Max())
	}
}

// randomTimeline draws n intervals around the window [arr, done] on up to
// 27 (phase, stage, level) keys: overlapping, clamped at either edge,
// wholly outside the window, and one in four zero-length.
func randomTimeline(rng *rand.Rand, arr, done sim.Time, n int) []Interval {
	phases := []string{PhaseQueue, PhaseExec, PhaseXfer}
	stages := []string{"FE", "SL", "RR"}
	levels := []string{"", "OnChip", "NearMem"}
	w := int64(done-arr) + 4
	ivs := make([]Interval, n)
	for i := range ivs {
		s := arr - sim.Time(w/4) + sim.Time(rng.Int63n(w+w/2))
		e := s
		if rng.Intn(4) > 0 {
			e += sim.Time(rng.Int63n(w))
		}
		ivs[i] = Interval{Phase: phases[rng.Intn(3)], Stage: stages[rng.Intn(3)], Level: levels[rng.Intn(3)], Start: s, End: e}
	}
	return ivs
}

// attributeRef is an independent oracle for attribution: a key covers
// each elementary segment, between consecutive clamped endpoints of its
// intervals, that one of its intervals spans.
func attributeRef(arr, done sim.Time, ivs []Interval) []Attribution {
	if len(ivs) == 0 {
		return nil
	}
	type key struct{ phase, stage, level string }
	var keys []key
	spans := map[key][][2]sim.Time{}
	for _, iv := range ivs {
		k := key{iv.Phase, iv.Stage, iv.Level}
		if _, ok := spans[k]; !ok {
			keys = append(keys, k)
		}
		spans[k] = append(spans[k], [2]sim.Time{max(iv.Start, arr), min(iv.End, done)})
	}
	var out []Attribution
	for _, k := range keys {
		var pts []sim.Time
		for _, se := range spans[k] {
			pts = append(pts, se[0], se[1])
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
		var covered sim.Time
		for i := 1; i < len(pts); i++ {
			for _, se := range spans[k] {
				if se[0] <= pts[i-1] && pts[i] <= se[1] {
					covered += pts[i] - pts[i-1]
					break
				}
			}
		}
		a := Attribution{Phase: k.phase, Stage: k.stage, Level: k.level, Covered: covered}
		if done > arr {
			a.Share = float64(covered) / float64(done-arr)
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Covered != b.Covered {
			return a.Covered > b.Covered
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Level < b.Level
	})
	return out
}

// TestDropTimelinesReuse interleaves many open queries with random
// timelines: the log that keeps its timelines attributes every query as
// the independent oracle does, and a DropTimelines log fed the same calls
// reports the same latency for every query and the same quantiles while
// keeping no timeline or attribution.
func TestDropTimelinesReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keep, drop := NewLog(Options{}), NewLog(Options{DropTimelines: true})
	const queries = 400
	type pending struct {
		id        int
		arr, done sim.Time
		ivs       []Interval
		added     int
	}
	var open []*pending
	for next := 0; next < queries || len(open) > 0; {
		if next < queries && (len(open) == 0 || rng.Intn(3) == 0) {
			arr := sim.Time(rng.Intn(1000))
			p := &pending{id: next, arr: arr, done: arr + sim.Time(rng.Intn(1000))}
			p.ivs = randomTimeline(rng, p.arr, p.done, rng.Intn(60))
			keep.Submitted(p.id, p.id, p.arr)
			drop.Submitted(p.id, p.id, p.arr)
			open = append(open, p)
			next++
			continue
		}
		i := rng.Intn(len(open))
		p := open[i]
		if p.added < len(p.ivs) {
			keep.Add(p.id, p.ivs[p.added])
			drop.Add(p.id, p.ivs[p.added])
			p.added++
			continue
		}
		keep.Completed(p.id, p.done)
		drop.Completed(p.id, p.done)
		open = append(open[:i], open[i+1:]...)
		want := attributeRef(p.arr, p.done, p.ivs)
		if got := keep.Query(p.id).Attribution; !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d attribution:\n got  %+v\n want %+v", p.id, got, want)
		}
		if len(p.ivs) > 0 && !reflect.DeepEqual(keep.Query(p.id).Intervals, p.ivs) {
			t.Fatalf("query %d kept timeline differs from the one recorded", p.id)
		}
		kq, dq := keep.Query(p.id), drop.Query(p.id)
		if dq.Arrival != kq.Arrival || dq.Done != kq.Done || dq.Latency() != kq.Latency() {
			t.Fatalf("query %d: DropTimelines bounds %v..%v, full log %v..%v", p.id, dq.Arrival, dq.Done, kq.Arrival, kq.Done)
		}
		if dq.Intervals != nil || dq.Attribution != nil {
			t.Fatalf("query %d: DropTimelines kept %d intervals and %d attributions", p.id, len(dq.Intervals), len(dq.Attribution))
		}
	}
	ks, ds := keep.Latencies(), drop.Latencies()
	if ks.Count() != queries || ds.Count() != ks.Count() || ds.Mean() != ks.Mean() || ds.Max() != ks.Max() {
		t.Fatalf("latencies differ: DropTimelines %d queries mean %v max %v, full log %d mean %v max %v",
			ds.Count(), ds.Mean(), ds.Max(), ks.Count(), ks.Mean(), ks.Max())
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if ds.Quantile(p) != ks.Quantile(p) {
			t.Fatalf("p%g: DropTimelines %v, full log %v", p*100, ds.Quantile(p), ks.Quantile(p))
		}
	}
}

// TestDropTimelinesLateAdd: an interval added after completion — a shard
// response arriving after the quorum merge — leaves no state on the
// completed query or on the next one.
func TestDropTimelinesLateAdd(t *testing.T) {
	l := NewLog(Options{DropTimelines: true})
	l.Submitted(0, 0, 0)
	l.Add(0, Interval{Phase: PhaseExec, Stage: "RR", Start: 0, End: ms(4)})
	l.Completed(0, ms(4))
	late := Interval{Phase: PhaseXfer, Stage: "RR", Start: ms(4), End: ms(5)}
	l.Add(0, late)
	l.Submitted(1, 1, ms(5))
	l.Add(1, Interval{Phase: PhaseQueue, Stage: "FE", Start: ms(5), End: ms(6)})
	l.Add(0, late)
	l.Completed(1, ms(6))
	for id, lat := range []sim.Time{ms(4), ms(1)} {
		q := l.Query(id)
		if q.Intervals != nil || q.Attribution != nil {
			t.Fatalf("query %d kept %d intervals and %d attributions", id, len(q.Intervals), len(q.Attribution))
		}
		if q.Latency() != lat {
			t.Fatalf("query %d latency %v, want %v", id, q.Latency(), lat)
		}
	}
}

// TestDropTimelinesAllocs: in steady state a DropTimelines query —
// Submitted, N intervals, Completed — allocates its Query and nothing
// else.
func TestDropTimelinesAllocs(t *testing.T) {
	l := NewLog(Options{DropTimelines: true})
	ivs := randomTimeline(rand.New(rand.NewSource(1)), ms(1), ms(9), 100)
	qid := 0
	query := func() {
		l.Submitted(qid, qid, ms(1))
		for _, iv := range ivs {
			l.Add(qid, iv)
		}
		l.Completed(qid, ms(9))
		qid++
	}
	for range 100 {
		query()
	}
	if allocs := testing.AllocsPerRun(1000, query); allocs > 1 {
		t.Errorf("a %d-interval query allocated %.0f objects, want at most 1", len(ivs), allocs)
	}
}

// TestLogIgnoresUnknownQueries: intervals and completions for IDs the log
// never saw submitted are dropped, not panics.
func TestLogIgnoresUnknownQueries(t *testing.T) {
	l := NewLog(Options{})
	l.Add(3, Interval{Phase: PhaseExec})
	l.Completed(3, ms(1))
	l.Add(-1, Interval{Phase: PhaseExec})
	if l.Latencies().Count() != 0 || len(l.Queries()) != 0 {
		t.Fatal("unknown query leaked into the log")
	}
}

// captureObserver records its completion callbacks.
type captureObserver struct {
	ids  []int
	ats  []sim.Time
	lats []sim.Time
}

func (c *captureObserver) QueryDone(id int, at, lat sim.Time) {
	c.ids = append(c.ids, id)
	c.ats = append(c.ats, at)
	c.lats = append(c.lats, lat)
}

// TestObserverSeesCompletions: the observer sees every completion once,
// in completion order, with its simulated instant and latency.
func TestObserverSeesCompletions(t *testing.T) {
	obs := &captureObserver{}
	l := NewLog(Options{Observer: obs})
	l.Submitted(0, 0, ms(0))
	l.Submitted(1, 1, ms(1))
	l.Completed(1, ms(5))
	l.Completed(0, ms(9))
	if !reflect.DeepEqual(obs.ids, []int{1, 0}) {
		t.Fatalf("observer ids = %v", obs.ids)
	}
	if !reflect.DeepEqual(obs.ats, []sim.Time{ms(5), ms(9)}) {
		t.Fatalf("observer instants = %v", obs.ats)
	}
	if !reflect.DeepEqual(obs.lats, []sim.Time{ms(4), ms(9)}) {
		t.Fatalf("observer latencies = %v", obs.lats)
	}
}

// TestObserverAtSeesCompletionInstant: the hook carries the simulated
// completion instant, distinct from the latency, for a query that arrived
// after time zero.
func TestObserverAtSeesCompletionInstant(t *testing.T) {
	obs := &captureObserver{}
	l := NewLog(Options{Observer: obs})
	l.Submitted(0, 7, 100)
	l.Completed(0, 350)
	if len(obs.ids) != 1 || obs.ids[0] != 0 {
		t.Fatalf("QueryDone ids = %v", obs.ids)
	}
	if len(obs.ats) != 1 || obs.ats[0] != 350 {
		t.Fatalf("completion instants = %v, want [350]", obs.ats)
	}
	if obs.lats[0] != 250 {
		t.Fatalf("latency = %v, want 250", obs.lats[0])
	}
}

// TestLogWithoutObserver: a log with no observer completes queries with
// no hook to call.
func TestLogWithoutObserver(t *testing.T) {
	l := NewLog(Options{})
	l.Submitted(3, 1, 10)
	l.Completed(3, 60)
	if n := l.Latencies().Count(); n != 1 || l.Query(3).Latency() != 50 {
		t.Fatalf("log without an observer completed %d queries, latency %v", n, l.Query(3).Latency())
	}
}

// TestCSVAndJSONLExport: the CSV exporter emits the pinned schemas with
// one interval row per recorded interval and one summary row per completed
// query.
func TestCSVAndJSONLExport(t *testing.T) {
	l := NewLog(Options{})
	l.Submitted(0, 0, ms(0))
	l.Add(0, Interval{Phase: PhaseQueue, Stage: "FE", Level: "OnChip", Detail: "immediate", Start: ms(0), End: ms(0)})
	l.Add(0, Interval{Phase: PhaseExec, Stage: "FE", Level: "OnChip", Detail: "onchip0", Start: ms(0), End: ms(6)})
	l.Completed(0, ms(8))
	l.Submitted(1, 1, ms(2)) // never completes: interval rows only

	var iv, sum bytes.Buffer
	if err := NewCSVWriter(&iv, &sum).WriteRun("r", l); err != nil {
		t.Fatal(err)
	}
	ivRows, err := csv.NewReader(&iv).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ivRows[0], ",") != strings.Join(IntervalCSVHeader(), ",") {
		t.Fatalf("interval header %v", ivRows[0])
	}
	if len(ivRows) != 3 { // header + 2 intervals
		t.Fatalf("interval rows = %d, want 3", len(ivRows))
	}
	sumRows, err := csv.NewReader(&sum).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(sumRows[0], ",") != strings.Join(SummaryCSVHeader(), ",") {
		t.Fatalf("summary header %v", sumRows[0])
	}
	if len(sumRows) != 2 { // header + 1 completed query
		t.Fatalf("summary rows = %d, want 2", len(sumRows))
	}
}
