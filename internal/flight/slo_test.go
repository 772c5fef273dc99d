package flight

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/qtrace"
	"repro/internal/sim"
)

// done is one completion: its simulated instant and its latency.
type done struct{ at, lat sim.Time }

// logOf plays the completions through a fresh query log, in the order
// given, and returns the log's queries.
func logOf(ds []done) []*qtrace.Query {
	l := qtrace.NewLog(qtrace.Options{DropTimelines: true})
	for i, d := range ds {
		l.Submitted(i, i, d.at-d.lat)
		l.Completed(i, d.at)
	}
	return l.Queries()
}

// TestSLOWindowQuantileAccuracy: each window's sketched quantiles must
// match the exact nearest-rank (⌈q·n⌉-th smallest) quantiles of the
// latencies that landed in that window, within the sketch's relative-error
// bound, although the sketch itself ranks ⌊q·n⌋. The completions reach the
// log out of time order, which the reducer must not care about.
func TestSLOWindowQuantileAccuracy(t *testing.T) {
	width := sim.FromSeconds(1e-3)
	rng := rand.New(rand.NewSource(7))
	var events []done
	byWindow := map[int][]sim.Time{}
	for i := 0; i < 5000; i++ {
		// Latencies spread over two decades so the log-bucketed sketch is
		// actually exercised.
		e := done{
			at:  sim.Time(rng.Int63n(int64(4 * width))),
			lat: sim.Time(1+rng.Int63n(100)) * sim.Millisecond / 2,
		}
		events = append(events, e)
		byWindow[int(e.at/width)] = append(byWindow[int(e.at/width)], e.lat)
	}
	windows := sloWindows(logOf(events), width, 20*sim.Millisecond)
	if len(windows) != len(byWindow) {
		t.Fatalf("%d windows reported, want %d", len(windows), len(byWindow))
	}
	exact := func(lats []sim.Time, q float64) sim.Time {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rank := int(math.Ceil(q*float64(len(lats)))) - 1
		if rank < 0 {
			rank = 0
		}
		return lats[rank]
	}
	for _, w := range windows {
		idx := int(w.start / width)
		lats := byWindow[idx]
		if w.queries != len(lats) {
			t.Fatalf("window %d has %d queries, want %d", idx, w.queries, len(lats))
		}
		for _, q := range []struct {
			p    float64
			got  sim.Time
			name string
		}{
			{0.5, w.p50, "p50"},
			{0.99, w.p99, "p99"},
			{0.999, w.p999, "p999"},
		} {
			want := exact(lats, q.p)
			if relErr := math.Abs(float64(q.got-want)) / float64(want); relErr > qtrace.DefaultAlpha+1e-9 {
				t.Errorf("window %d %s = %v, exact %v (rel err %.4f > %.2f)",
					idx, q.name, q.got, want, relErr, qtrace.DefaultAlpha)
			}
		}
	}
}

// TestSLOBurnCounters: breaches count latencies strictly above the
// objective, per window and cumulatively; a query still in flight at the
// end of the run counts nowhere.
func TestSLOBurnCounters(t *testing.T) {
	width := sim.Millisecond
	// Window 0: 3 queries, 1 breach. Window 2: 2 queries, 2 breaches.
	queries := logOf([]done{
		{0, 5 * sim.Millisecond},
		{1, 10 * sim.Millisecond}, // at objective: not a breach
		{2, 11 * sim.Millisecond},
		{2 * width, 20 * sim.Millisecond},
		{2*width + 1, 30 * sim.Millisecond},
	})
	queries = append(queries, &qtrace.Query{ID: 5, Arrival: 0})
	windows := sloWindows(queries, width, 10*sim.Millisecond)
	want := []struct {
		start             sim.Time
		queries, breaches int
	}{{0, 3, 1}, {2 * width, 2, 2}}
	if len(windows) != len(want) {
		t.Fatalf("windows = %+v, want %d non-empty", windows, len(want))
	}
	for i, w := range want {
		if got := windows[i]; got.start != w.start || got.queries != w.queries || got.breaches != w.breaches {
			t.Errorf("window %d = %+v, want %+v", i, got, w)
		}
	}
	tbl := SLOTable(queries, width, 10*sim.Millisecond)
	if tbl == nil || len(tbl.Rows) != 2 {
		t.Fatalf("table = %+v, want 2 rows", tbl)
	}
	if len(tbl.Notes) != 2 || tbl.Notes[1] != "5 queries, 3 breaches (60.00% burn)" {
		t.Errorf("table notes = %v", tbl.Notes)
	}
	if tbl := SLOTable(queries[5:], width, width); tbl != nil {
		t.Errorf("a run with no completion rendered %+v, want no table", tbl)
	}
}

// TestSLOTenThousandSecondWindow pins the widest window reachsim accepts,
// -slo-window 1e7 (10,000 s): the last instant sim.Time can hold is window
// 922, and the table keeps every window up to it.
func TestSLOTenThousandSecondWindow(t *testing.T) {
	width := 10_000 * sim.Second
	windows := sloWindows(logOf([]done{
		{0, 5 * sim.Millisecond},
		{width, 20 * sim.Millisecond},
		{width + 1, 5 * sim.Millisecond},
		{sim.MaxTime, 20 * sim.Millisecond},
	}), width, 10*sim.Millisecond)
	want := []struct {
		start             sim.Time
		queries, breaches int
	}{{0, 1, 0}, {width, 2, 1}, {922 * width, 1, 1}}
	if len(windows) != len(want) {
		t.Fatalf("windows = %+v, want %d", windows, len(want))
	}
	for i, w := range want {
		got := windows[i]
		if got.start != w.start || got.queries != w.queries || got.breaches != w.breaches {
			t.Errorf("window %d = %+v, want start %v, %d queries, %d breaches",
				i, got, w.start, w.queries, w.breaches)
		}
	}
}

// FuzzSLOWindows checks the reducer against a reference kept here: group
// every completion by at/width and build one sketch for each populated
// window, oldest first. Every window is kept, however many there are or
// however far apart. scale picks a width from 1 ps to 10,000 s; each step
// byte picks a move (stay, step up to 31 quarter windows forward or back,
// or jump up to 3,008 windows) and a latency within 8 ms either side of
// the objective.
func FuzzSLOWindows(f *testing.F) {
	f.Add(uint8(0), []byte{1, 9, 2, 10, 3, 0, 18, 26})
	f.Add(uint8(3), []byte{2, 10, 3, 11, 26, 27, 19})
	f.Add(uint8(9), []byte{0, 0, 1, 1, 1, 2, 3, 3, 2})
	f.Add(uint8(16), []byte{0, 129, 1, 250, 2, 3, 3})
	f.Fuzz(func(t *testing.T, scale uint8, steps []byte) {
		e := int(scale % 17)
		width := sim.Time(1)
		for range e {
			width *= 10
		}
		if e < 16 {
			width *= sim.Time(1 + int(scale/17)%9)
		}
		objective := 10 * sim.Millisecond

		var events []done
		byWindow := map[sim.Time][]sim.Time{}
		var at sim.Time
		for _, b := range steps {
			param := sim.Time(b >> 3)
			next := at
			switch b & 7 {
			case 1, 2:
				next += param * max(width/4, 1)
			case 3:
				next = max(next-param*max(width/4, 1), 0)
			case 4, 5:
				idx := at/width + 1 + param*97
				if idx > (sim.MaxTime-width)/width {
					break // past what sim.Time holds
				}
				next = idx*width + param%width
			}
			if next < 0 {
				break
			}
			at = next
			lat := objective - 8*sim.Millisecond + param*sim.Millisecond/2
			events = append(events, done{at, lat})
			byWindow[at/width] = append(byWindow[at/width], lat)
		}

		var want []sloWindow
		idxs := make([]sim.Time, 0, len(byWindow))
		for idx := range byWindow {
			idxs = append(idxs, idx)
		}
		slices.Sort(idxs)
		for _, idx := range idxs {
			w := sloWindow{start: idx * width, queries: len(byWindow[idx])}
			sk := qtrace.NewSketch(0)
			for _, l := range byWindow[idx] {
				sk.Add(l)
				if l > objective {
					w.breaches++
				}
			}
			w.p50, w.p99, w.p999 = sk.Quantile(0.5), sk.Quantile(0.99), sk.Quantile(0.999)
			want = append(want, w)
		}
		if got := sloWindows(logOf(events), width, objective); !reflect.DeepEqual(got, want) {
			t.Fatalf("width %v, %d steps:\n got  %+v\n want %+v", width, len(steps), got, want)
		}
	})
}
