package qtrace

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

// TestLogLifecycle: submit → intervals → complete drives the sketch, the
// completion count and the query table.
func TestLogLifecycle(t *testing.T) {
	l := NewLog(Options{})
	l.Submitted(0, 7, ms(10))
	l.Add(0, Interval{Phase: PhaseQueue, Stage: "SL", Level: "NearMem", Detail: "no-idle-instance", Start: ms(10), End: ms(14)})
	l.Add(0, Interval{Phase: PhaseExec, Stage: "SL", Level: "NearMem", Detail: "nearmem0", Start: ms(14), End: ms(20)})
	if l.CompletedCount() != 0 || l.Query(0).Completed() {
		t.Fatal("query completed prematurely")
	}
	l.Completed(0, ms(20))
	q := l.Query(0)
	if !q.Completed() || q.Latency() != ms(10) || q.Job != 7 {
		t.Fatalf("query state wrong: done=%v lat=%v job=%d", q.Completed(), q.Latency(), q.Job)
	}
	if l.CompletedCount() != 1 || l.Sketch().Count() != 1 {
		t.Fatalf("counters wrong: done=%d sketch=%d", l.CompletedCount(), l.Sketch().Count())
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

// TestDropTimelines: the memory-bounding mode releases interval slices at
// completion while attribution and the sketch survive.
func TestDropTimelines(t *testing.T) {
	l := NewLog(Options{DropTimelines: true})
	l.Submitted(0, 0, 0)
	l.Add(0, Interval{Phase: PhaseExec, Stage: "FE", Level: "OnChip", Start: 0, End: ms(4)})
	l.Completed(0, ms(4))
	q := l.Query(0)
	if q.Intervals != nil {
		t.Fatal("timeline retained despite DropTimelines")
	}
	if q.Dominant().Phase != PhaseExec || l.Sketch().Count() != 1 {
		t.Fatal("attribution or sketch lost with DropTimelines")
	}
}

// TestLogIgnoresUnknownQueries: intervals and completions for IDs the log
// never saw submitted are dropped, not panics.
func TestLogIgnoresUnknownQueries(t *testing.T) {
	l := NewLog(Options{})
	l.Add(3, Interval{Phase: PhaseExec})
	l.Completed(3, ms(1))
	l.Add(-1, Interval{Phase: PhaseExec})
	if l.CompletedCount() != 0 || len(l.Queries()) != 0 {
		t.Fatal("unknown query leaked into the log")
	}
}

// captureObserver records its completion callbacks, tagging each with its
// name in a journal shared across observers so notification order is
// observable.
type captureObserver struct {
	name    string
	journal *[]string
	ids     []int
	ats     []sim.Time
	lats    []sim.Time
}

func (c *captureObserver) QueryDone(id int, at, lat sim.Time) {
	*c.journal = append(*c.journal, c.name)
	c.ids = append(c.ids, id)
	c.ats = append(c.ats, at)
	c.lats = append(c.lats, lat)
}

// TestObserverSeesCompletions: every observer sees every completion with
// its simulated instant and latency, notified in slice order.
func TestObserverSeesCompletions(t *testing.T) {
	var journal []string
	a := &captureObserver{name: "a", journal: &journal}
	b := &captureObserver{name: "b", journal: &journal}
	l := NewLog(Options{Observers: []Observer{a, b}})
	l.Submitted(0, 0, ms(0))
	l.Submitted(1, 1, ms(1))
	l.Completed(1, ms(5))
	l.Completed(0, ms(9))
	if want := []string{"a", "b", "a", "b"}; !reflect.DeepEqual(journal, want) {
		t.Fatalf("notification order = %v, want %v", journal, want)
	}
	for _, obs := range []*captureObserver{a, b} {
		if !reflect.DeepEqual(obs.ids, []int{1, 0}) {
			t.Fatalf("observer %s ids = %v", obs.name, obs.ids)
		}
		if !reflect.DeepEqual(obs.ats, []sim.Time{ms(5), ms(9)}) {
			t.Fatalf("observer %s instants = %v", obs.name, obs.ats)
		}
		if !reflect.DeepEqual(obs.lats, []sim.Time{ms(4), ms(9)}) {
			t.Fatalf("observer %s latencies = %v", obs.name, obs.lats)
		}
	}
}

// TestObserverAtSeesCompletionInstant: the hook carries the simulated
// completion instant, distinct from the latency, for a query that arrived
// after time zero.
func TestObserverAtSeesCompletionInstant(t *testing.T) {
	var journal []string
	obs := &captureObserver{name: "x", journal: &journal}
	l := NewLog(Options{Observers: []Observer{obs}})
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

// TestTeeFansOut: the log fans one completion out to every listed
// observer, and a log with an empty list completes queries with no hook.
func TestTeeFansOut(t *testing.T) {
	var journal []string
	a := &captureObserver{name: "a", journal: &journal}
	b := &captureObserver{name: "b", journal: &journal}
	l := NewLog(Options{Observers: []Observer{a, b}})
	l.Submitted(3, 1, 10)
	l.Completed(3, 60)
	for _, obs := range []*captureObserver{a, b} {
		if len(obs.ids) != 1 || obs.ids[0] != 3 || obs.ats[0] != 60 {
			t.Fatalf("fan-out missed observer %s: ids %v at %v", obs.name, obs.ids, obs.ats)
		}
	}
	bare := NewLog(Options{Observers: []Observer{}})
	bare.Submitted(3, 1, 10)
	bare.Completed(3, 60)
	if bare.CompletedCount() != 1 {
		t.Fatalf("log without observers completed %d queries, want 1", bare.CompletedCount())
	}
}

// TestTeeOrdering: with three observers — cmd's chain of inspector, SLO
// monitor and flight recorder on one completion stream — each completion
// notifies all of them in slice order before the next completion starts.
func TestTeeOrdering(t *testing.T) {
	var journal []string
	a := &captureObserver{name: "a", journal: &journal}
	b := &captureObserver{name: "b", journal: &journal}
	c := &captureObserver{name: "c", journal: &journal}
	l := NewLog(Options{Observers: []Observer{a, b, c}})
	l.Submitted(0, 0, 0)
	l.Submitted(1, 1, 0)
	l.Completed(0, 10)
	l.Completed(1, 20)
	if want := []string{"a", "b", "c", "a", "b", "c"}; !reflect.DeepEqual(journal, want) {
		t.Fatalf("callback order = %v, want %v", journal, want)
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
