package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestAddJobsSurfacesErrorKeepsRest: an unfinished job mid-batch must not
// hide the finished jobs after it, and the first error must come back to
// the caller instead of being dropped.
func TestAddJobsSurfacesErrorKeepsRest(t *testing.T) {
	run, err := experiments.RunPipeline(workload.DefaultModel(), experiments.ReACHMapping(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	notDone := core.NewJob(99) // never submitted, so never done

	tl := NewTimeline()
	jobs := []*core.Job{run.Jobs[0], notDone, run.Jobs[1]}
	addErr := tl.AddJobs(jobs)
	if addErr == nil {
		t.Fatal("not-done job produced no error")
	}
	if !strings.Contains(addErr.Error(), "99") {
		t.Errorf("error %q does not name the offending job", addErr)
	}

	// Both completed jobs must still be in the timeline: compare against a
	// timeline built from only the good jobs.
	want := NewTimeline()
	if err := want.AddJobs([]*core.Job{run.Jobs[0], run.Jobs[1]}); err != nil {
		t.Fatal(err)
	}
	if tl.Events() != want.Events() {
		t.Fatalf("events after mid-batch error = %d, want %d (jobs dropped)",
			tl.Events(), want.Events())
	}
}

// TestAddCountersAndSpans: sampled runs merge into the timeline as "C"
// counter events and per-category span lanes.
func TestAddCountersAndSpans(t *testing.T) {
	spec := experiments.PipelineSpec("p", workload.DefaultModel(), experiments.ReACHMapping(), 2, 2)
	spec.Metrics = &metrics.Options{Spans: true}
	run, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline()
	if err := tl.AddJobs(run.Jobs); err != nil {
		t.Fatal(err)
	}
	before := tl.Events()
	tl.AddCounters(run.Obs.Sampler)
	if tl.Events() <= before {
		t.Fatal("AddCounters added no events")
	}
	if run.Obs.Spans.Len() == 0 {
		t.Fatal("pipeline run recorded no GAM spans")
	}
	mid := tl.Events()
	tl.AddSpans(run.Obs.Spans)
	if got := tl.Events() - mid; got != run.Obs.Spans.Len() {
		t.Fatalf("AddSpans added %d events, want %d", got, run.Obs.Spans.Len())
	}
	var sawDispatchLane bool
	for _, l := range tl.Lanes() {
		if l == metrics.CatDispatch {
			sawDispatchLane = true
		}
	}
	if !sawDispatchLane {
		t.Error("no dispatch span lane in timeline")
	}
}

// TestAddQueries: a traced run merges into the timeline as one lane per
// query, each carrying the end-to-end query slice (with its dominant
// attribution) plus every recorded phase interval.
func TestAddQueries(t *testing.T) {
	spec := experiments.PipelineSpec("p", workload.DefaultModel(), experiments.ReACHMapping(), 2, 3)
	spec.QTrace = &qtrace.Options{}
	run, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline()
	if err := tl.AddJobs(run.Jobs); err != nil {
		t.Fatal(err)
	}
	before := tl.Events()
	tl.AddQueries(run.QLog)
	wantEvents := 0
	for _, q := range run.QLog.Queries() {
		wantEvents += 1 + len(q.Intervals) // query slice + its intervals
	}
	if got := tl.Events() - before; got != wantEvents {
		t.Fatalf("AddQueries added %d events, want %d", got, wantEvents)
	}
	queryLanes := 0
	for _, l := range tl.Lanes() {
		if strings.HasPrefix(l, "query ") {
			queryLanes++
		}
	}
	if queryLanes != 3 {
		t.Fatalf("query lanes = %d, want 3", queryLanes)
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"query 0"`, `"dominant"`, qtrace.PhaseQueue, qtrace.PhaseExec} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %q", want)
		}
	}
}

// laneRun samples, at the given interval, a run with a connection that
// first moves at 35 µs and again at 75 µs ("c.late"), one that moves 4 KiB
// at 45, 55, 65 and 75 µs ("c.steady", so at a 10 µs interval its busy %
// repeats a non-zero value), a port that holds two items from 25 µs to
// 55 µs ("q.port") and a connection that never moves ("i.idle").
func laneRun(t *testing.T, interval sim.Time) *metrics.Sampler {
	t.Helper()
	eng := sim.NewEngine()
	late := sim.NewLink(eng, "c.late", 1e9, 0)
	steady := sim.NewLink(eng, "c.steady", 1e9, 0)
	sim.NewLink(eng, "i.idle", 1e9, 0)
	port := sim.NewTokenQueue(eng, "q.port", 4)
	eng.At(25*sim.Microsecond, func() { port.Put(1, nil); port.Put(2, nil) })
	eng.At(35*sim.Microsecond, func() { late.Transfer(4096) })
	for _, at := range []sim.Time{45, 55, 65, 75} {
		eng.At(at*sim.Microsecond, func() { steady.Transfer(4096) })
	}
	eng.At(55*sim.Microsecond, func() { port.Get(func(any) {}); port.Get(func(any) {}) })
	eng.At(75*sim.Microsecond, func() { late.Transfer(4096) })
	eng.At(100*sim.Microsecond, func() {})
	rec := metrics.Attach(eng, metrics.Options{Interval: interval})
	eng.Run()
	rec.Finish()
	return rec.Sampler
}

// lanePoint is one counter event: its timestamp and value.
type lanePoint struct{ ts, value float64 }

// counterLanes renders AddCounters(s) and returns each counter lane's
// events in timestamp order.
func counterLanes(t *testing.T, s metrics.Source) map[string][]lanePoint {
	t.Helper()
	tl := NewTimeline()
	tl.AddCounters(s)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name, Ph, Cat string
		TS            float64
		Args          struct{ Value float64 }
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	lanes := map[string][]lanePoint{}
	for _, e := range events {
		if e.Ph == "C" && e.Cat == "metrics" {
			lanes[e.Name] = append(lanes[e.Name], lanePoint{e.TS, e.Args.Value})
		}
	}
	return lanes
}

// checkCounterLanes checks every lane of s against its series. The
// expected lane is the series rendered at every kept sample (every
// stride-th, as the exporter decimates) with each point that equals the
// lane's previous kept point dropped, starting from zero; a series
// starting at sample k > 0 takes its first busy % against the zero of
// sample k-1. Of the rendered lanes it also checks that no lane holds two
// consecutive equal values (or a leading zero), that each lane's step
// function equals the series' value at every kept sample instant, and
// that a connection has no occupancy lane. It returns the series whose
// first busy % took that zero.
func checkCounterLanes(t *testing.T, s metrics.Source) []string {
	t.Helper()
	lanes := counterLanes(t, s)
	var fromZero []string
	for _, se := range s.Series() {
		occ, busy := se.Name+" occupancy", se.Name+" busy %"
		every := map[string][]lanePoint{} // each lane's value at every kept sample
		stride := max((se.Len()+counterPointCap-1)/counterPointCap, 1)
		prevAt, prevBusy, havePrev := sim.Time(0), sim.Time(0), se.Start() > 0
		if havePrev {
			prevAt = s.Time(se.Start() - 1)
		}
		for i := 0; i < se.Len(); i += stride {
			p, at := se.At(i), s.Time(se.Start()+i)
			every[occ] = append(every[occ], lanePoint{us(at), float64(p.Occupancy)})
			if havePrev && at > prevAt {
				pct := float64(p.Busy-prevBusy) / float64(at-prevAt) * 100
				every[busy] = append(every[busy], lanePoint{us(at), pct})
				if i == 0 && pct != 0 {
					fromZero = append(fromZero, se.Name)
				}
			}
			prevAt, prevBusy, havePrev = at, p.Busy, true
		}
		if se.Kind == sim.KindConnection && lanes[occ] != nil {
			t.Errorf("connection %s has an occupancy lane", se.Name)
		}
		for _, lane := range []string{occ, busy} {
			got := lanes[lane]
			if want := changesOnly(every[lane]); !slices.Equal(got, want) {
				t.Errorf("lane %q = %v, want %v", lane, got, want)
			}
			last := 0.0
			for _, p := range got {
				if p.value == last {
					t.Errorf("lane %q repeats %v at %v µs", lane, p.value, p.ts)
				}
				last = p.value
			}
			for _, p := range every[lane] {
				if v := stepAt(got, p.ts); v != p.value {
					t.Errorf("lane %q draws %v at %v µs, where the series reads %v", lane, v, p.ts, p.value)
				}
			}
			delete(lanes, lane)
		}
	}
	for lane := range lanes {
		t.Errorf("lane %q has no series", lane)
	}
	return fromZero
}

// changesOnly drops each point equal to the previous kept point, starting
// from zero.
func changesOnly(every []lanePoint) []lanePoint {
	var out []lanePoint
	last := 0.0
	for _, p := range every {
		if p.value != last {
			out = append(out, p)
			last = p.value
		}
	}
	return out
}

// stepAt is the value a counter lane draws at ts: its last point at or
// before ts, and zero before its first.
func stepAt(lane []lanePoint, ts float64) float64 {
	v := 0.0
	for _, p := range lane {
		if p.ts > ts {
			break
		}
		v = p.value
	}
	return v
}

// TestCounterLanesWriteOnlyChanges: each counter lane holds a point only
// where its value differs from the lane's previous point, starting from
// zero, and draws its series' value at every kept sample instant. That
// holds on a full run and on a window cut from it, sampled at 10 µs and
// at 20 ns, where every series is longer than counterPointCap and is
// decimated; a resource first busy after sample 0 shows that first
// interval's busy %.
func TestCounterLanesWriteOnlyChanges(t *testing.T) {
	for _, interval := range []sim.Time{10 * sim.Microsecond, 20 * sim.Nanosecond} {
		s := laneRun(t, interval)
		lanes := counterLanes(t, s)
		for _, want := range []string{"c.late busy %", "c.steady busy %", "q.port occupancy"} {
			if lanes[want] == nil {
				t.Errorf("%v: no %q lane", interval, want)
			}
		}
		for lane := range lanes {
			if strings.HasPrefix(lane, "i.idle") {
				t.Errorf("%v: idle resource has lane %q", interval, lane)
			}
		}
		if interval == 10*sim.Microsecond {
			// 40.96% from 50 µs to 80 µs, then 0: two points.
			if got := lanes["c.steady busy %"]; len(got) != 2 || got[1].value != 0 {
				t.Errorf("c.steady busy %% = %v, want one busy point and one zero", got)
			}
		} else {
			for _, se := range s.Series() {
				if se.Len() <= counterPointCap {
					t.Errorf("%v: %s holds %d points, want more than %d", interval, se.Name, se.Len(), counterPointCap)
				}
			}
		}
		full := checkCounterLanes(t, s)
		// The window opens more than one sample before c.late first
		// moves, so every busy series starts after the window's first
		// sample as well.
		window := checkCounterLanes(t, metrics.WindowOf(s, 20*sim.Microsecond, s.Time(s.Samples()-1)))
		for _, got := range [][]string{full, window} {
			if want := []string{"c.late", "c.steady"}; !slices.Equal(got, want) {
				t.Errorf("%v: first busy %% against the zero sample before the series: %v, want %v", interval, got, want)
			}
		}
	}
}

// fuzzInterval is FuzzCounterLanes's sampling period.
const fuzzInterval = sim.Microsecond

// scheduled is a registered resource whose counters follow a decoded
// schedule: at engine time t it reports step t/fuzzInterval (the last
// step after the schedule ends).
type scheduled struct {
	name string
	eng  *sim.Engine
	occ  []int
	busy []sim.Time // cumulative
}

func (r *scheduled) Name() string { return r.name }

func (r *scheduled) ResourceStats() sim.ResourceStats {
	k := min(int(r.eng.Now()/fuzzInterval), len(r.occ)-1)
	return sim.ResourceStats{Kind: sim.KindQueue, Occupancy: r.occ[k], Busy: r.busy[k]}
}

// FuzzCounterLanes decodes bytes into one to three resources, each a
// leading run of zero samples followed by steps that hold an occupancy
// (0–3) and a busy rate (0–175% in 25% steps) for 1–256 samples, samples
// them with a metrics.Sampler, and checks every lane against
// checkCounterLanes's reference on the full run and on its last two
// thirds. Schedules of more than counterPointCap samples are decimated.
func FuzzCounterLanes(f *testing.F) {
	f.Add([]byte{0, 3, 0x05, 2, 0x05, 0, 0x00, 4})
	f.Add([]byte{2, 0, 0x11, 3, 0x09, 9, 40, 0x22, 1, 0x01, 0, 0x03, 7, 0x1c, 5})
	long := []byte{0, 10}
	for i := 0; i < 12; i++ {
		long = append(long, byte(i%3)|byte(i%4)<<2, 255)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		eng := sim.NewEngine()
		n := 1 + int(data[0]%3)
		data = data[1:]
		chunk := len(data) / n
		end := 0
		for r := 0; r < n; r++ {
			res := &scheduled{name: "r" + strconv.Itoa(r), eng: eng}
			b := data[r*chunk : (r+1)*chunk]
			var cum sim.Time
			step := func(occ int, busy sim.Time, hold int) {
				for ; hold > 0 && len(res.occ) < 3*counterPointCap; hold-- {
					cum += busy
					res.occ, res.busy = append(res.occ, occ), append(res.busy, cum)
				}
			}
			if len(b) > 0 {
				step(0, 0, int(b[0]))
				b = b[1:]
			}
			for ; len(b) >= 2; b = b[2:] {
				step(int(b[0]&3), sim.Time(b[0]>>2&7)*fuzzInterval/4, 1+int(b[1]))
			}
			if len(res.occ) == 0 {
				continue
			}
			eng.Stats().Register(res.name, res)
			end = max(end, len(res.occ))
		}
		eng.At(sim.Time(end)*fuzzInterval, func() {})
		rec := metrics.Attach(eng, metrics.Options{Interval: fuzzInterval})
		eng.Run()
		rec.Finish()
		s := rec.Sampler
		checkCounterLanes(t, s)
		if s.Samples() > 0 {
			checkCounterLanes(t, metrics.WindowOf(s, s.Time(s.Samples()/3), s.Time(s.Samples()-1)))
		}
	})
}
