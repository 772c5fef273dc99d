package inspect

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
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

// TestSLOScrapeDuringClusterRun is the concurrency gate (run under
// -race): a cluster run feeds the monitor from the test goroutine while
// HTTP scrapes hammer /progress and expvar from four others. Snapshots mid-run must be well-formed; the final burn counters
// must match the run.
func TestSLOScrapeDuringClusterRun(t *testing.T) {
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := config.DefaultCluster()
	m := workload.DefaultModel()
	m.DatasetSize /= 100
	mon := NewSLOMonitor(sim.FromSeconds(1e-3), 50*sim.Millisecond)
	c, err := cluster.New(cfg, m, qtrace.Options{Observers: []qtrace.Observer{s, mon}})
	if err != nil {
		t.Fatal(err)
	}
	c.Multi().SetBarrierObserver(s)
	s.ObserveSLO(mon)
	const queries = 200
	for i := 0; i < queries; i++ {
		c.SubmitAt(sim.Time(i) * sim.FromSeconds(1e-4))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var snap Snapshot
				if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/progress")), &snap); err != nil {
					t.Errorf("mid-run /progress: %v", err)
					return
				}
				if snap.SLO != nil && snap.SLO.Breaches > snap.SLO.Queries {
					t.Errorf("snapshot breaches %d > queries %d", snap.SLO.Breaches, snap.SLO.Queries)
					return
				}
				get(t, "http://"+s.Addr()+"/debug/vars")
			}
		}()
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	st := mon.Stats()
	if st.Queries != queries {
		t.Fatalf("monitor saw %d completions, want %d", st.Queries, queries)
	}
	vars := get(t, "http://"+s.Addr()+"/debug/vars")
	for _, want := range []string{"slo_breaches_total", "slo_burn_pct", "slo_window_p99_ms"} {
		if !strings.Contains(vars, want) {
			t.Errorf("/debug/vars missing %q", want)
		}
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/progress")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SLO == nil || snap.SLO.Queries != queries {
		t.Fatalf("final snapshot SLO block = %+v", snap.SLO)
	}
}

// TestSLOWindowEvictionAtCap crosses the maxSLOWindows retention cap: the
// oldest windows age out, but no longer silently — the eviction counter
// surfaces in Stats, the table gains a suffix warning, and the expvar is
// published. Cumulative burn counters must be unaffected by eviction.
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
		t.Errorf("sparse eviction counted %d windows, want 1 (nil gaps are free)", got)
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

	// The expvar surfaces the counter for live scrapes.
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ObserveSLO(m)
	vars := get(t, "http://"+s.Addr()+"/debug/vars")
	if !strings.Contains(vars, `"slo_windows_evicted": 576`) {
		t.Errorf("/debug/vars missing slo_windows_evicted: %.200s", vars)
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
	if c := cap(m.windows); c > 2*maxSLOWindows {
		t.Fatalf("cap(windows) = %d after completions 10^6 windows apart, want <= %d", c, 2*maxSLOWindows)
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
