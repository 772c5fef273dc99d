package inspect

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/flight"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSLOScrapeDuringClusterRun is the concurrency gate (run under
// -race): a cluster run feeds the monitor from the test goroutine while
// HTTP scrapes hammer /progress and expvar from four others. Snapshots
// mid-run must be well-formed; the final burn counters must match the run.
func TestSLOScrapeDuringClusterRun(t *testing.T) {
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := config.DefaultCluster()
	m := workload.DefaultModel()
	m.DatasetSize /= 100
	mon := flight.NewSLOMonitor(sim.FromSeconds(1e-3), 50*sim.Millisecond)
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

// TestSLOWindowEvictionAtCap: a monitor past its 1,024-window cap (1,600
// populated windows) surfaces its eviction count through the
// slo_windows_evicted expvar; flight's test of the same name checks the
// monitor itself.
func TestSLOWindowEvictionAtCap(t *testing.T) {
	width := sim.Millisecond
	m := flight.NewSLOMonitor(width, 10*sim.Millisecond)
	for i := 0; i < 1600; i++ {
		m.QueryDone(i, sim.Time(i)*width, 20*sim.Millisecond)
	}
	if got := m.Stats().WindowsEvicted; got != 576 {
		t.Fatalf("WindowsEvicted = %d, want 576", got)
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
