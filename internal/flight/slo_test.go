package flight

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/qtrace"
	"repro/internal/sim"
)

// The monitor must plug into the qtrace completion hook.
var _ qtrace.Observer = (*SLOMonitor)(nil)

// TestSLOWindowQuantileAccuracy: each window's sketched quantiles must
// match the exact (nearest-rank, sorted) quantiles of the latencies that
// landed in that window, within the sketch's relative-error bound.
func TestSLOWindowQuantileAccuracy(t *testing.T) {
	width := sim.FromSeconds(1e-3)
	m := NewSLOMonitor(width, 20*sim.Millisecond)
	rng := rand.New(rand.NewSource(7))
	type done struct{ at, lat sim.Time }
	var events []done
	for i := 0; i < 5000; i++ {
		// Latencies spread over two decades so the log-bucketed sketch is
		// actually exercised.
		events = append(events, done{
			at:  sim.Time(rng.Int63n(int64(4 * width))),
			lat: sim.Time(1+rng.Int63n(100)) * sim.Millisecond / 2,
		})
	}
	// Completions arrive in simulated-time order, as they do from a run.
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	byWindow := map[int][]sim.Time{}
	for i, e := range events {
		m.QueryDone(i, e.at, e.lat)
		byWindow[int(e.at/width)] = append(byWindow[int(e.at/width)], e.lat)
	}
	st := m.Stats()
	if len(st.Windows) != len(byWindow) {
		t.Fatalf("%d windows reported, want %d", len(st.Windows), len(byWindow))
	}
	exact := func(lats []sim.Time, q float64) float64 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rank := int(math.Ceil(q*float64(len(lats)))) - 1
		if rank < 0 {
			rank = 0
		}
		return lats[rank].Milliseconds()
	}
	for _, w := range st.Windows {
		idx := int(sim.FromSeconds(w.StartMs/1e3) / width)
		lats := byWindow[idx]
		if w.Queries != len(lats) {
			t.Fatalf("window %d has %d queries, want %d", idx, w.Queries, len(lats))
		}
		for _, q := range []struct {
			p    float64
			got  float64
			name string
		}{
			{0.5, w.P50Ms, "p50"},
			{0.99, w.P99Ms, "p99"},
			{0.999, w.P999Ms, "p999"},
		} {
			want := exact(lats, q.p)
			if relErr := math.Abs(q.got-want) / want; relErr > qtrace.DefaultAlpha+1e-9 {
				t.Errorf("window %d %s = %.4f ms, exact %.4f ms (rel err %.4f > %.2f)",
					idx, q.name, q.got, want, relErr, qtrace.DefaultAlpha)
			}
		}
	}
}

// TestSLOBurnCounters: breaches count latencies strictly above the
// objective, per window and cumulatively.
func TestSLOBurnCounters(t *testing.T) {
	width := sim.Millisecond
	m := NewSLOMonitor(width, 10*sim.Millisecond)
	// Window 0: 3 queries, 1 breach. Window 2: 2 queries, 2 breaches.
	m.QueryDone(0, 0, 5*sim.Millisecond)
	m.QueryDone(1, 1, 10*sim.Millisecond) // at objective: not a breach
	m.QueryDone(2, 2, 11*sim.Millisecond)
	m.QueryDone(3, 2*width, 20*sim.Millisecond)
	m.QueryDone(4, 2*width+1, 30*sim.Millisecond)
	st := m.Stats()
	if st.Queries != 5 || st.Breaches != 3 {
		t.Fatalf("queries=%d breaches=%d, want 5/3", st.Queries, st.Breaches)
	}
	if math.Abs(st.BurnPct-60) > 1e-9 {
		t.Errorf("burn = %.2f%%, want 60%%", st.BurnPct)
	}
	if len(st.Windows) != 2 {
		t.Fatalf("windows = %+v, want 2 non-empty", st.Windows)
	}
	if st.Windows[0].Queries != 3 || st.Windows[0].Breaches != 1 {
		t.Errorf("window 0 = %+v, want 3 queries 1 breach", st.Windows[0])
	}
	if st.Windows[1].Queries != 2 || st.Windows[1].Breaches != 2 {
		t.Errorf("window 1 = %+v, want 2 queries 2 breaches", st.Windows[1])
	}
	tbl := m.Table()
	if tbl == nil || len(tbl.Rows) != 2 {
		t.Fatalf("table = %+v, want 2 rows", tbl)
	}
	if len(tbl.Notes) != 2 || !strings.Contains(tbl.Notes[1], "3 breaches") {
		t.Errorf("table notes = %v", tbl.Notes)
	}
	if NewSLOMonitor(width, width).Table() != nil {
		t.Error("empty monitor should render no table")
	}
}

// TestSLOWindowEvictionAtCap crosses the maxSLOWindows retention cap: the
// oldest windows age out, but no longer silently — the eviction counter
// surfaces in Stats and the table gains a suffix warning (the inspector's
// test of the same name checks the expvar). Cumulative burn counters must
// be unaffected by eviction.
func TestSLOWindowEvictionAtCap(t *testing.T) {
	width := sim.Millisecond
	m := NewSLOMonitor(width, 10*sim.Millisecond)
	const populated = maxSLOWindows + 576
	for i := 0; i < populated; i++ {
		m.QueryDone(i, sim.Time(i)*width, 20*sim.Millisecond) // every one a breach
	}
	st := m.Stats()
	if st.Queries != populated || st.Breaches != populated {
		t.Fatalf("queries=%d breaches=%d, want %d cumulative despite eviction",
			st.Queries, st.Breaches, populated)
	}
	if len(st.Windows) != maxSLOWindows {
		t.Fatalf("%d windows retained, want the cap %d", len(st.Windows), maxSLOWindows)
	}
	if st.WindowsEvicted != populated-maxSLOWindows {
		t.Fatalf("WindowsEvicted = %d, want %d", st.WindowsEvicted, populated-maxSLOWindows)
	}
	// The retained rows are the newest suffix.
	wantStart := sim.Time(populated-maxSLOWindows) * width
	if st.Windows[0].StartMs != wantStart.Milliseconds() {
		t.Errorf("oldest retained window starts at %.3f ms, want %.3f ms",
			st.Windows[0].StartMs, wantStart.Milliseconds())
	}
	tbl := m.Table()
	if len(tbl.Notes) != 3 || !strings.Contains(tbl.Notes[2], "576 populated windows evicted") {
		t.Errorf("table notes = %v, want eviction warning", tbl.Notes)
	}

	// Sparse gap: only populated windows count as evictions.
	m2 := NewSLOMonitor(width, 10*sim.Millisecond)
	m2.QueryDone(0, 0, 5*sim.Millisecond)
	m2.QueryDone(1, sim.Time(2*maxSLOWindows)*width, 5*sim.Millisecond)
	if got := m2.Stats().WindowsEvicted; got != 1 {
		t.Errorf("sparse eviction counted %d windows, want 1 (empty windows take no slot)", got)
	}

	// Below the cap nothing is evicted and the table carries no warning.
	m3 := NewSLOMonitor(width, 10*sim.Millisecond)
	m3.QueryDone(0, 0, 20*sim.Millisecond)
	if st := m3.Stats(); st.WindowsEvicted != 0 {
		t.Errorf("uncapped monitor reports %d evictions", st.WindowsEvicted)
	}
	if notes := m3.Table().Notes; len(notes) != 2 {
		t.Errorf("uncapped table notes = %v, want no eviction warning", notes)
	}
}

// TestSLOWindowGapCostsAtMostTheCap: a window far narrower than the gap
// between completions must not cost one slot per empty window in the
// gap. With 1 ps windows and completions 1 µs apart, each completion
// lands 10^6 windows past the previous one and evicts it.
func TestSLOWindowGapCostsAtMostTheCap(t *testing.T) {
	m := NewSLOMonitor(sim.Picosecond, 10*sim.Millisecond)
	const n = 64
	for i := 0; i < n; i++ {
		m.QueryDone(i, sim.Time(i)*sim.Microsecond, 20*sim.Millisecond)
	}
	if c := cap(m.windows.buf); c > 2*maxSLOWindows {
		t.Fatalf("cap(windows.buf) = %d after completions 10^6 windows apart, want <= %d", c, 2*maxSLOWindows)
	}
	st := m.Stats()
	if st.Queries != n || st.Breaches != n {
		t.Errorf("queries=%d breaches=%d, want %d", st.Queries, st.Breaches, n)
	}
	if st.WindowsEvicted != n-1 {
		t.Errorf("WindowsEvicted = %d, want %d", st.WindowsEvicted, n-1)
	}
	last := sim.Time(n-1) * sim.Microsecond
	if len(st.Windows) != 1 || st.Windows[0].StartMs != last.Milliseconds() {
		t.Errorf("retained windows = %+v, want only the one at %.6f ms", st.Windows, last.Milliseconds())
	}
}

// TestSLOTenThousandSecondWindow pins the widest window reachsim accepts,
// -slo-window 1e7 (10,000 s): the last instant sim.Time can hold is window
// 922, and the monitor keeps every window up to it. Stamping windows by
// start time would overflow here, since 1,023 widths exceed sim.MaxTime.
func TestSLOTenThousandSecondWindow(t *testing.T) {
	width := 10_000 * sim.Second
	m := NewSLOMonitor(width, 10*sim.Millisecond)
	m.QueryDone(0, 0, 5*sim.Millisecond)
	m.QueryDone(1, width, 20*sim.Millisecond)
	m.QueryDone(2, width+1, 5*sim.Millisecond)
	m.QueryDone(3, sim.MaxTime, 20*sim.Millisecond)
	st := m.Stats()
	if st.Queries != 4 || st.Breaches != 2 || st.WindowsEvicted != 0 {
		t.Fatalf("queries=%d breaches=%d evicted=%d, want 4/2/0", st.Queries, st.Breaches, st.WindowsEvicted)
	}
	want := []struct {
		start             sim.Time
		queries, breaches int
	}{{0, 1, 0}, {width, 2, 1}, {922 * width, 1, 1}}
	if len(st.Windows) != len(want) {
		t.Fatalf("windows = %+v, want %d", st.Windows, len(want))
	}
	for i, w := range want {
		got := st.Windows[i]
		if got.StartMs != w.start.Milliseconds() || got.Queries != w.queries || got.Breaches != w.breaches {
			t.Errorf("window %d = %+v, want start %.0f ms, %d queries, %d breaches",
				i, got, w.start.Milliseconds(), w.queries, w.breaches)
		}
	}
}

// FuzzSLOWindows checks the monitor against a reference kept here: group
// every completion of a nondecreasing stream by at/width, keep the
// populated windows within maxSLOWindows−1 of the last index, and build
// one sketch for each. Stats must equal it — windows, evictions and
// totals. scale picks a width from 1 ps to 10,000 s; each step byte picks
// a move (stay, step up to 31 quarter windows, jump 1,022 to 1,025
// windows, or jump up to 3,008) and a latency within 8 ms either side of
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
		m := NewSLOMonitor(width, objective)

		type window struct {
			idx  sim.Time
			lats []sim.Time
			hot  int
		}
		var wins []window
		var queries, breaches uint64
		var at sim.Time
		for i, b := range steps {
			param := sim.Time(b >> 3)
			idx := at / width
			switch b & 7 {
			case 1, 2:
				at += param * max(width/4, 1)
			case 3, 4:
				idx += 1022 + param%4
				at = idx*width + param%width
			case 5:
				idx += 1 + param*97
				at = idx*width + param%width
			}
			if at < 0 || idx > (sim.MaxTime-width)/width {
				break // past what sim.Time holds
			}
			lat := objective - 8*sim.Millisecond + param*sim.Millisecond/2
			m.QueryDone(i, at, lat)

			if n := len(wins); n == 0 || wins[n-1].idx != at/width {
				wins = append(wins, window{idx: at / width})
			}
			w := &wins[len(wins)-1]
			w.lats = append(w.lats, lat)
			queries++
			if lat > objective {
				w.hot++
				breaches++
			}
		}

		want := SLOStats{
			ObjectiveMs: objective.Milliseconds(),
			WindowMs:    width.Milliseconds(),
			Queries:     queries,
			Breaches:    breaches,
		}
		if queries > 0 {
			want.BurnPct = 100 * float64(breaches) / float64(queries)
		}
		for _, w := range wins {
			if wins[len(wins)-1].idx-w.idx > maxSLOWindows-1 {
				want.WindowsEvicted++
				continue
			}
			sk := qtrace.NewSketch(0)
			for _, l := range w.lats {
				sk.Add(l)
			}
			want.Windows = append(want.Windows, SLOWindowStat{
				StartMs:  (w.idx * width).Milliseconds(),
				Queries:  len(w.lats),
				P50Ms:    sk.Quantile(0.5).Milliseconds(),
				P99Ms:    sk.Quantile(0.99).Milliseconds(),
				P999Ms:   sk.Quantile(0.999).Milliseconds(),
				Breaches: w.hot,
			})
		}
		if got := m.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("width %v, %d steps:\n got  %+v\n want %+v", width, len(steps), got, want)
		}
	})
}
