package sim

import (
	"sort"
	"testing"
)

// These tests pin the allocation-free event hot path: schedule + dispatch
// through ScheduleCall must not touch the heap once the engine is warmed
// (slots, heap and free list at capacity). A regression here means some
// future change reintroduced per-event garbage — multiplied by every
// parallel runner worker — so it fails loudly rather than showing up as a
// quiet throughput loss.

// countHandler is a minimal long-lived Handler.
type countHandler struct {
	fired uint64
	last  uint64
}

func (h *countHandler) Fire(_ *Engine, arg uint64) {
	h.fired++
	h.last = arg
}

func TestScheduleCallZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	fired := 0
	fn := func() { fired++ } // prebuilt: the closure is the caller's allocation
	// Warm the pool: establish heap/slot/free-list capacity.
	for i := 0; i < 64; i++ {
		e.ScheduleCall(Time(i), h, uint64(i))
	}
	e.Run()

	for _, c := range []struct {
		name     string
		schedule func()
	}{
		{"ScheduleCall", func() { e.ScheduleCall(Nanosecond, h, 7) }},
		{"At", func() { e.At(e.Now()+Nanosecond, fn) }},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			c.schedule()
			e.RunUntil(e.Now() + Nanosecond)
		})
		if allocs != 0 {
			t.Errorf("%s+dispatch allocated %.1f objects/op, want 0", c.name, allocs)
		}
	}
	if h.last != 7 {
		t.Errorf("handler arg = %d, want 7", h.last)
	}
	if fired != 201 { // AllocsPerRun runs the function once more to warm up
		t.Errorf("At closure fired %d times, want 201", fired)
	}
}

// A fan-out burst (many pending events) must also be allocation-free once
// warmed: pushes, 4-ary sifts and pops reuse the flat heap and slot pool.
func TestFanOutZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	for i := 0; i < 256; i++ {
		e.ScheduleCall(Time(i%17), h, 0)
	}
	e.Run()

	allocs := testing.AllocsPerRun(50, func() {
		base := e.Now()
		for i := 0; i < 256; i++ {
			e.ScheduleCall(Time(i%17), h, 0)
		}
		e.RunUntil(base + 17)
	})
	if allocs != 0 {
		t.Errorf("fan-out schedule+dispatch allocated %.1f objects/op, want 0", allocs)
	}
}

// FIFO among same-time events must hold for AtCall exactly as for At, and
// across a mix of both APIs (the seq tie-break is shared): closures and
// handlers interleaved at one instant fire in scheduling order, and an
// event scheduled for that instant from inside a callback fires after every
// one already queued.
func TestAtCallFIFOAmongTies(t *testing.T) {
	e := NewEngine()
	var order []uint64
	rec := recordHandler{order: &order}
	e.AtCall(5, rec, 1)
	e.At(5, func() { order = append(order, 2) })
	e.AtCall(5, rec, 3)
	e.At(3, func() { order = append(order, 0) })
	e.At(5, func() {
		order = append(order, 4)
		e.At(5, func() { order = append(order, 8) })
		e.AtCall(5, rec, 9)
	})
	e.AtCall(5, rec, 5)
	e.At(5, func() { order = append(order, 6) })
	e.AtCall(5, rec, 7)
	e.Run()
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 5 || e.Executed() != uint64(len(want)) {
		t.Errorf("now %v after %d events, want 5 after %d", e.Now(), e.Executed(), len(want))
	}
}

type recordHandler struct{ order *[]uint64 }

func (r recordHandler) Fire(_ *Engine, arg uint64) { *r.order = append(*r.order, arg) }

// Run must refuse re-entrant invocation from inside a callback —
// dispatching mid-dispatch would corrupt event order — and the engine must
// stay usable after the callback recovers.
func TestRunReentrancyGuard(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Schedule(1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Run()
	})
	e.Schedule(2, func() {})
	e.Run()
	if !panicked {
		t.Error("re-entrant Run did not panic")
	}
	if e.Executed() != 2 || e.Now() != 2 {
		t.Errorf("executed %d events by %v, want 2 by 2ps", e.Executed(), e.Now())
	}
	// The engine must remain usable after the recovered panic.
	e.Schedule(1, func() {})
	e.Run()
	if e.Executed() != 3 {
		t.Errorf("engine unusable after recovered re-entrant Run: executed = %d, want 3", e.Executed())
	}
}

// TestRegistryWalkZeroAlloc: walking the registry allocates nothing in
// steady state (the cached sorted order). The metrics sampler's zero-alloc
// guarantee rests on this.
func TestRegistryWalkZeroAlloc(t *testing.T) {
	eng := NewEngine()
	for _, n := range []string{"b.x", "a.y", "c.z", "a.a"} {
		NewLink(eng, n, 1e9, 0)
	}
	var count int
	fn := func(string, Resource) { count++ }
	eng.Stats().Walk(fn) // first walk sorts
	allocs := testing.AllocsPerRun(100, func() { eng.Stats().Walk(fn) })
	if allocs > 0 {
		t.Fatalf("Walk allocates %.1f/op in steady state, want 0", allocs)
	}
	// Registering afterwards re-sorts and keeps order correct.
	NewLink(eng, "a.b", 1e9, 0)
	var names []string
	eng.Stats().Walk(func(n string, _ Resource) { names = append(names, n) })
	if !sort.StringsAreSorted(names) {
		t.Fatalf("walk order not sorted after late registration: %v", names)
	}
}

// pingPong bounces a message between two domains over a pair of
// CrossLinks until its hop budget runs out; arg is the domain it is in.
type pingPong struct {
	doms  [2]*Engine
	links [2]*CrossLink
	hops  int
}

func (p *pingPong) Fire(_ *Engine, arg uint64) {
	if p.hops == 0 {
		return
	}
	p.hops--
	p.links[arg].Send(p.doms[1-arg], 64, p, 1-arg)
}

// TestBarrierRoundZeroAlloc: once warmed, a MultiEngine barrier round —
// the safe-window run, the mailbox drain and its merge sort, the mail
// list — allocates nothing. A ping-pong makes every hop its own
// round, so any per-round garbage shows up here.
func TestBarrierRoundZeroAlloc(t *testing.T) {
	m := NewMultiEngine(2)
	a, b := m.Domain(0), m.Domain(1)
	p := &pingPong{
		doms:  [2]*Engine{a, b},
		links: [2]*CrossLink{NewCrossLink(a, "x.ab", 1e9, 5), NewCrossLink(b, "x.ba", 1e9, 5)},
	}
	const hops = 32
	bounce := func() {
		p.hops = hops
		a.AtCall(m.Now(), p, 0)
		m.Run()
	}
	bounce() // warm calendars, mailboxes and the merge scratch
	before := m.Rounds()
	allocs := testing.AllocsPerRun(20, bounce)
	if allocs != 0 {
		t.Errorf("ping-pong run of %d barrier rounds allocated %.1f objects, want 0", hops, allocs)
	}
	if got := m.Rounds() - before; got < 21*hops {
		t.Errorf("ran %d rounds over 21 bounces, want at least %d", got, 21*hops)
	}
}
