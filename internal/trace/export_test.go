package trace

import (
	"bytes"
	"encoding/json"
	"slices"
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

// laneRun samples a run with a connection that first moves at 35 µs and
// again at 75 µs ("c.late"), a port that holds two items from 25 µs to
// 55 µs ("q.port") and a connection that never moves ("i.idle").
func laneRun(t *testing.T) *metrics.Sampler {
	t.Helper()
	eng := sim.NewEngine()
	late := sim.NewLink(eng, "c.late", 1e9, 0)
	sim.NewLink(eng, "i.idle", 1e9, 0)
	port := sim.NewTokenQueue(eng, "q.port", 4)
	eng.At(25*sim.Microsecond, func() { port.Put(1, nil); port.Put(2, nil) })
	eng.At(35*sim.Microsecond, func() { late.Transfer(4096) })
	eng.At(55*sim.Microsecond, func() { port.TryGet(); port.TryGet() })
	eng.At(75*sim.Microsecond, func() { late.Transfer(4096) })
	eng.At(100*sim.Microsecond, func() {})
	rec := metrics.Attach(eng, metrics.Options{Interval: 10 * sim.Microsecond})
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

// checkCounterLanes checks every lane of s against its series: a lane
// starts at the series' first non-zero value of that lane and runs to
// the end, a connection has no occupancy lane, and a series starting at
// sample k > 0 takes its first busy % against the zero of sample k-1.
// It returns the series whose first busy % took that zero.
func checkCounterLanes(t *testing.T, s metrics.Source) []string {
	t.Helper()
	lanes := counterLanes(t, s)
	var fromZero []string
	for _, se := range s.Series() {
		var occ, busy []lanePoint
		prevAt, prevBusy, havePrev := sim.Time(0), sim.Time(0), se.Start() > 0
		if havePrev {
			prevAt = s.Time(se.Start() - 1)
		}
		for i := 0; i < se.Len(); i++ {
			p, at := se.At(i), s.Time(se.Start()+i)
			if occ != nil || p.Occupancy != 0 {
				occ = append(occ, lanePoint{us(at), float64(p.Occupancy)})
			}
			if havePrev {
				if pct := float64(p.Busy-prevBusy) / float64(at-prevAt) * 100; busy != nil || pct != 0 {
					busy = append(busy, lanePoint{us(at), pct})
					if i == 0 {
						fromZero = append(fromZero, se.Name)
					}
				}
			}
			prevAt, prevBusy, havePrev = at, p.Busy, true
		}
		if se.Kind == sim.KindConnection && lanes[se.Name+" occupancy"] != nil {
			t.Errorf("connection %s has an occupancy lane", se.Name)
		}
		for lane, want := range map[string][]lanePoint{se.Name + " occupancy": occ, se.Name + " busy %": busy} {
			if got := lanes[lane]; !slices.Equal(got, want) {
				t.Errorf("lane %q = %v, want %v", lane, got, want)
			}
			delete(lanes, lane)
		}
	}
	for lane := range lanes {
		t.Errorf("lane %q has no series", lane)
	}
	return fromZero
}

// TestCounterLanesStartAtFirstNonZero: each counter lane starts at its
// first non-zero value, judged per lane, on a full run and on a window
// cut from it; a resource first busy after sample 0 shows that first
// interval's busy %.
func TestCounterLanesStartAtFirstNonZero(t *testing.T) {
	s := laneRun(t)
	lanes := counterLanes(t, s)
	for _, want := range []string{"c.late busy %", "q.port occupancy"} {
		if lanes[want] == nil {
			t.Errorf("no %q lane", want)
		}
	}
	for lane := range lanes {
		if strings.HasPrefix(lane, "i.idle") {
			t.Errorf("idle resource has lane %q", lane)
		}
	}
	full := checkCounterLanes(t, s)
	// The window opens two samples before c.late first moves, so its
	// series starts after the window's first sample as well.
	window := checkCounterLanes(t, metrics.WindowOf(s, 20*sim.Microsecond, s.Time(s.Samples()-1)))
	for _, got := range [][]string{full, window} {
		if !slices.Equal(got, []string{"c.late"}) {
			t.Errorf("first busy %% against the zero sample before the series: %v, want [c.late]", got)
		}
	}
}
