package mem

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// runTrace streams a fixed access trace through a single-DIMM controller
// and returns the finish time.
func runTrace(t *testing.T, policy PagePolicy, addrs []int64) sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	d := NewDIMM(eng, "d", noRefresh(), DefaultGeometry())
	d.SetPagePolicy(policy)
	c := NewController(eng, "mc", []*DIMM{d}, 64, 64)
	next := 0
	var finish sim.Time
	var submit func()
	submit = func() {
		for next < len(addrs) {
			ok := c.Submit(&Request{Addr: addrs[next], Done: func(at sim.Time) {
				if at > finish {
					finish = at
				}
				submit()
			}})
			if !ok {
				return
			}
			next++
		}
	}
	submit()
	eng.Run()
	return finish
}

func TestPagePolicyString(t *testing.T) {
	if OpenPage.String() != "open-page" || ClosedPage.String() != "closed-page" {
		t.Error("policy strings wrong")
	}
}

func TestSequentialStreamsBusBoundUnderBothPolicies(t *testing.T) {
	// With activation lookahead, a sequential stream saturates the data
	// bus under either policy (activations hide under earlier bursts), so
	// the policies must be within a whisker of each other and of the
	// bus-bound lower bound.
	addrs := make([]int64, 4096)
	for i := range addrs {
		addrs[i] = int64(i) * 64
	}
	open := runTrace(t, OpenPage, addrs)
	closed := runTrace(t, ClosedPage, addrs)
	busBound := sim.FromSeconds(4096 * 64 / DDR42400().PeakBandwidth())
	for name, got := range map[string]sim.Time{"open": open, "closed": closed} {
		if got < busBound {
			t.Errorf("%s page beat the bus bound: %v < %v", name, got, busBound)
		}
		if float64(got) > float64(busBound)*1.05 {
			t.Errorf("%s page = %v, want within 5%% of bus bound %v", name, got, busBound)
		}
	}
}

func TestClosedPageWinsOnRandomTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	addrs := make([]int64, 4096)
	for i := range addrs {
		// Random rows within one bank-heavy region: open page suffers
		// conflicts (tRAS + tRP before reactivation), closed page pays
		// only tRCD.
		addrs[i] = int64(rng.Intn(1<<20)) &^ 63
	}
	open := runTrace(t, OpenPage, addrs)
	closed := runTrace(t, ClosedPage, addrs)
	if closed >= open {
		t.Errorf("closed page (%v) not faster than open page (%v) on random traffic", closed, open)
	}
}

func TestClosedPageLeavesRowsClosed(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDIMM(eng, "d", noRefresh(), DefaultGeometry())
	d.SetPagePolicy(ClosedPage)
	d.Access(0, false)
	for i := range d.banks {
		if d.banks[i].openRow != -1 {
			t.Fatalf("bank %d row open under closed-page policy", i)
		}
	}
	if d.PagePolicy() != ClosedPage {
		t.Error("policy getter wrong")
	}
}

// TestRandomEfficiencyBracketedByPagePolicies derives the bulk model's
// random_efficiency from the request-level model: uniformly random 64 B
// reads across one DIMM, 64 in flight behind a Table II controller, reach
// about 0.30 of peak under open page (nearly every access a row conflict)
// and 0.41 under closed page (every access a row miss). A real controller
// sits between the two policies (adaptive page closing), and so must the
// configured constant.
func TestRandomEfficiencyBracketedByPagePolicies(t *testing.T) {
	const (
		requests    = 32 << 10
		outstanding = 64
	)
	cfg := config.Default().Memory
	efficiency := func(policy PagePolicy) float64 {
		eng := sim.NewEngine()
		d := NewDIMM(eng, "d0", DDR42400(), DefaultGeometry())
		d.SetPagePolicy(policy)
		c := NewController(eng, "mc0", []*DIMM{d}, 64, 64)
		rng := rand.New(rand.NewSource(1))
		issued := 0
		var finish sim.Time
		var issue func()
		issue = func() {
			issued++
			r := &Request{Addr: rng.Int63n(cfg.DIMMBytes) &^ 63, Done: func(at sim.Time) {
				finish = at
				if issued < requests {
					issue()
				}
			}}
			if !c.Submit(r) {
				t.Fatalf("%v: controller rejected a read with %d in flight", policy, outstanding)
			}
		}
		for i := 0; i < outstanding; i++ {
			issue()
		}
		eng.Run()
		return requests * 64 / finish.Seconds() / d.timing.PeakBandwidth()
	}
	open, closed := efficiency(OpenPage), efficiency(ClosedPage)
	if !(open < cfg.RandomEfficieny && cfg.RandomEfficieny < closed) {
		t.Errorf("random-read efficiency open-page %.3f, closed-page %.3f: want the configured random_efficiency %.2f strictly between",
			open, closed, cfg.RandomEfficieny)
	}
}
