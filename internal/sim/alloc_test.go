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
	// Warm the pool: establish heap/slot/free-list capacity.
	for i := 0; i < 64; i++ {
		e.ScheduleCall(Time(i), h, uint64(i))
	}
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleCall(Nanosecond, h, 7)
		e.RunUntil(e.Now() + Nanosecond)
	})
	if allocs != 0 {
		t.Errorf("ScheduleCall+dispatch allocated %.1f objects/op, want 0", allocs)
	}
	if h.last != 7 {
		t.Errorf("handler arg = %d, want 7", h.last)
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

// Cancellation via generation-stamped handles must be allocation-free too
// (the timeout-guard pattern runs once per request in the storage models).
func TestCancelZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	for i := 0; i < 64; i++ {
		e.ScheduleCall(Time(i), h, 0)
	}
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		guard := e.ScheduleCall(Microsecond, h, 0)
		e.ScheduleCall(Nanosecond, h, 0)
		e.RunUntil(e.Now() + Nanosecond)
		guard.Cancel()
	})
	if allocs != 0 {
		t.Errorf("schedule+cancel allocated %.1f objects/op, want 0", allocs)
	}
}

// A stale handle must never cancel a recycled slot: after the original
// event fires, its slot is reused by a new event; cancelling through the
// old handle has to be a no-op because the generation stamp advanced.
func TestStaleHandleCannotCancelReusedSlot(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	stale := e.ScheduleCall(10, h, 1)
	if !stale.Scheduled() {
		t.Fatal("fresh handle reports not scheduled")
	}
	e.Run()
	if stale.Scheduled() || stale.When() != 0 {
		t.Error("fired handle still reports scheduled")
	}
	// The freed slot is recycled by the next schedule (LIFO free list).
	fresh := e.ScheduleCall(20, h, 2)
	stale.Cancel() // must NOT cancel the new event
	if !fresh.Scheduled() {
		t.Fatal("stale handle cancelled a reused slot")
	}
	e.Run()
	if h.fired != 2 {
		t.Errorf("fired = %d, want 2", h.fired)
	}
	if h.last != 2 {
		t.Errorf("last arg = %d, want 2", h.last)
	}
}

// FIFO among same-time events must hold for AtCall exactly as for At, and
// across a mix of both APIs (the seq tie-break is shared).
func TestAtCallFIFOAmongTies(t *testing.T) {
	e := NewEngine()
	var order []uint64
	rec := recordHandler{order: &order}
	e.AtCall(5, rec, 1)
	e.At(5, func() { order = append(order, 2) })
	e.AtCall(5, rec, 3)
	e.At(3, func() { order = append(order, 0) })
	e.Run()
	want := []uint64{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

type recordHandler struct{ order *[]uint64 }

func (r recordHandler) Fire(_ *Engine, arg uint64) { *r.order = append(*r.order, arg) }

// Step must refuse re-entrant invocation from inside a callback, exactly
// like Run — dispatching mid-dispatch would corrupt event order.
func TestStepReentrancyGuard(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Schedule(1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Step()
	})
	e.Schedule(2, func() {})
	if !e.Step() {
		t.Fatal("Step found no event")
	}
	if !panicked {
		t.Error("re-entrant Step did not panic")
	}
	// The engine must remain usable after the recovered panic.
	if !e.Step() {
		t.Error("engine unusable after recovered re-entrant Step")
	}
	if e.Executed() != 2 {
		t.Errorf("executed = %d, want 2", e.Executed())
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
