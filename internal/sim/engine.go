package sim

import "fmt"

// Handler is the closure-free scheduling interface: long-lived model
// objects (a memory controller, a task node, a job) implement Fire once and
// are scheduled with Engine.AtCall/ScheduleCall, passing per-event state
// through arg. This is the steady-state hot path — it allocates nothing —
// while the func()-based At/Schedule remain as a convenience for cold paths
// and tests (the closure itself is the caller's allocation; the calendar
// entry is pooled either way).
type Handler interface {
	// Fire runs the event. arg is the value passed at scheduling time;
	// handlers that multiplex several event kinds encode a phase tag (and,
	// if needed, a small index) in it.
	Fire(eng *Engine, arg uint64)
}

// event is one calendar entry: the ordering keys inline (so heap sifts
// touch one cache line per element, no pointer chasing, no interface
// boxing) plus the index of the slot holding its payload.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	slot int32
}

// eventSlot holds an event's payload. Slots are recycled through the
// engine's free list; gen increments on every release so stale EventHandles
// can never cancel a reused slot.
type eventSlot struct {
	h         Handler
	fn        func()
	arg       uint64
	gen       uint32
	heapIndex int32 // position in the heap, -1 once fired or cancelled
}

// EventHandle identifies a scheduled event for cancellation. It is a small
// value (no heap allocation); the zero value is inert. A handle becomes
// stale once its event fires or is cancelled — Cancel on a stale handle is
// a no-op even if the underlying slot has been reused, because the slot's
// generation stamp no longer matches.
type EventHandle struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Scheduled reports whether the event is still pending in the calendar.
func (h EventHandle) Scheduled() bool {
	e := h.eng
	if e == nil || int(h.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[h.slot]
	return s.gen == h.gen && s.heapIndex >= 0
}

// When reports the simulated time the event is scheduled for, or zero once
// it has fired or been cancelled.
func (h EventHandle) When() Time {
	e := h.eng
	if e == nil || int(h.slot) >= len(e.slots) {
		return 0
	}
	s := &e.slots[h.slot]
	if s.gen != h.gen || s.heapIndex < 0 {
		return 0
	}
	return e.heap[s.heapIndex].at
}

// Cancel prevents the event from firing and removes it from the calendar
// immediately, so long-lived simulations that schedule-and-cancel (e.g.
// timeout guards) do not accumulate dead events in the heap until their
// nominal time is reached; the slot returns to the free list at once.
// Cancelling an event that already fired (or was already cancelled) is a
// no-op: the generation check makes stale handles harmless.
func (h EventHandle) Cancel() {
	e := h.eng
	if e == nil || int(h.slot) >= len(e.slots) {
		return
	}
	s := &e.slots[h.slot]
	if s.gen != h.gen || s.heapIndex < 0 {
		return
	}
	e.removeAt(int(s.heapIndex))
	e.release(h.slot)
}

// Engine is a single-threaded discrete-event simulation kernel. All model
// components attached to an Engine share its virtual clock; the engine
// dispatches events in nondecreasing time order, FIFO among ties.
//
// The engine is deliberately not safe for concurrent use: determinism is a
// core requirement for the reproducibility of the experiments, so the whole
// simulation executes on one goroutine.
//
// The calendar is a hand-rolled 4-ary min-heap over a flat []event slice
// ordered by (at, seq): no container/heap interface boxing, no per-event
// pointer, and event payloads live in pooled slots recycled through a free
// list — steady-state scheduling and dispatch perform zero heap
// allocations (see TestScheduleCallZeroAlloc).
type Engine struct {
	now      Time
	seq      uint64
	heap     []event
	slots    []eventSlot
	free     []int32
	executed uint64
	running  bool
	stats    *StatsRegistry

	// Domain fields, zero/nil on a standalone engine. When multi is set the
	// engine is one domain of a MultiEngine: the coordinator drives it via
	// runBound, xseq orders its cross-domain exports, and inbox receives
	// events exported by sibling domains (see domain.go). Senders append
	// during a round and the coordinator drains it at the barrier; the
	// backing array is retained, so a warmed mailbox appends without
	// allocating.
	id    int32
	multi *MultiEngine
	xseq  uint64
	inbox []xevent
}

// NewEngine returns an engine with the clock at time zero and an empty
// calendar.
func NewEngine() *Engine {
	// Seed the calendar with room for a realistic pending-event population
	// so a fresh engine reaches its zero-alloc steady state without paying
	// a ladder of append regrowths (and slot copies) first.
	const seedCap = 1024
	return &Engine{
		stats: NewStatsRegistry(),
		heap:  make([]event, 0, seedCap),
		slots: make([]eventSlot, 0, seedCap),
		free:  make([]int32, 0, seedCap),
	}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Stats returns the engine's central resource registry: every shared
// resource (link, stream buffer, request queue, window) constructed on
// this engine registers itself here under a hierarchical name.
func (e *Engine) Stats() *StatsRegistry {
	if e.stats == nil {
		e.stats = NewStatsRegistry() // tolerate zero-value engines in tests
	}
	return e.stats
}

// Executed reports how many events have been dispatched so far; useful for
// progress reporting and as a runaway-simulation guard in tests.
func (e *Engine) Executed() uint64 { return e.executed }

// ID reports the engine's domain index within its MultiEngine (0 for a
// standalone engine).
func (e *Engine) ID() int { return int(e.id) }

// Pending reports the number of events currently scheduled. Cancelled
// events are removed from the calendar eagerly and do not count.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it always indicates a model bug, and silently clamping would
// corrupt causality. Hot paths should prefer AtCall, which does not force
// the caller to allocate a closure.
func (e *Engine) At(t Time, fn func()) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	return e.push(t, nil, 0, fn)
}

// Schedule schedules fn to run after delay from the current time.
// A negative delay panics.
func (e *Engine) Schedule(delay Time, fn func()) EventHandle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// AtCall schedules h.Fire(e, arg) at absolute simulated time t. This is the
// allocation-free fast path: the handler is a long-lived model object, arg
// carries the per-event state, and the calendar entry is a pooled slot.
func (e *Engine) AtCall(t Time, h Handler, arg uint64) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if h == nil {
		panic("sim: scheduling nil handler")
	}
	return e.push(t, h, arg, nil)
}

// ScheduleCall schedules h.Fire(e, arg) after delay from the current time.
// A negative delay panics.
func (e *Engine) ScheduleCall(delay Time, h Handler, arg uint64) EventHandle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.AtCall(e.now+delay, h, arg)
}

// push places a payload in a (recycled) slot and the ordering keys in the
// heap. Exactly one of h and fn is non-nil.
func (e *Engine) push(t Time, h Handler, arg uint64, fn func()) EventHandle {
	var si int32
	if n := len(e.free); n > 0 {
		si = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		si = int32(len(e.slots) - 1)
	}
	s := &e.slots[si]
	s.h, s.fn, s.arg = h, fn, arg
	e.heap = append(e.heap, event{at: t, seq: e.seq, slot: si})
	e.seq++
	e.siftUp(len(e.heap) - 1)
	return EventHandle{eng: e, slot: si, gen: s.gen}
}

// release returns a fired or cancelled event's slot to the free list,
// clearing payload references and bumping the generation so stale handles
// cannot touch the reused slot.
func (e *Engine) release(si int32) {
	s := &e.slots[si]
	s.h, s.fn, s.arg = nil, nil, 0
	s.gen++
	s.heapIndex = -1
	e.free = append(e.free, si)
}

// before orders calendar entries by (at, seq); seq is unique, so the order
// is total and same-time events dispatch FIFO regardless of heap shape.
func before(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is 4-ary: children of i are 4i+1..4i+4, parent is (i-1)/4.
// Shallower than a binary heap (siftUp does fewer compares per level) and
// the four children share cache lines in the flat slice, which is where a
// specialized calendar queue wins over container/heap.

func (e *Engine) siftUp(i int) {
	ev := e.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !before(ev, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.slots[e.heap[i].slot].heapIndex = int32(i)
		i = p
	}
	e.heap[i] = ev
	e.slots[ev.slot].heapIndex = int32(i)
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	ev := e.heap[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(e.heap[j], e.heap[m]) {
				m = j
			}
		}
		if !before(e.heap[m], ev) {
			break
		}
		e.heap[i] = e.heap[m]
		e.slots[e.heap[i].slot].heapIndex = int32(i)
		i = m
	}
	e.heap[i] = ev
	e.slots[ev.slot].heapIndex = int32(i)
}

// popMin removes and returns the earliest calendar entry.
func (e *Engine) popMin() event {
	top := e.heap[0]
	n := len(e.heap) - 1
	if n > 0 {
		e.heap[0] = e.heap[n]
	}
	e.heap = e.heap[:n]
	if n > 0 {
		e.slots[e.heap[0].slot].heapIndex = 0
		e.siftDown(0)
	}
	return top
}

// removeAt deletes the entry at heap index i (cancellation).
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.heap[i] = last
	e.slots[last.slot].heapIndex = int32(i)
	e.siftUp(i)
	e.siftDown(int(e.slots[last.slot].heapIndex))
}

// dispatch fires one popped calendar entry. The slot is released before the
// callback runs so the callback's own scheduling can reuse it immediately.
func (e *Engine) dispatch(ev event) {
	s := &e.slots[ev.slot]
	h, fn, arg := s.h, s.fn, s.arg
	e.release(ev.slot)
	e.now = ev.at
	e.executed++
	if h != nil {
		h.Fire(e, arg)
	} else {
		fn()
	}
}

// Step dispatches the single earliest event. It reports false when the
// calendar is empty. Like RunUntil it panics on re-entrant invocation
// (calling Step from inside an event callback would corrupt dispatch
// order).
func (e *Engine) Step() bool {
	if e.running {
		panic("sim: re-entrant Step")
	}
	if len(e.heap) == 0 {
		return false
	}
	e.running = true
	defer func() { e.running = false }()
	e.dispatch(e.popMin())
	return true
}

// Run dispatches events until the calendar drains. It panics on re-entrant
// invocation (calling Run from inside an event callback).
func (e *Engine) Run() {
	e.RunUntil(MaxTime)
}

// RunUntil dispatches events with time ≤ deadline, then advances the clock
// to min(deadline, time of last event). Events scheduled beyond the deadline
// stay in the calendar.
func (e *Engine) RunUntil(deadline Time) {
	if e.multi != nil {
		panic("sim: domain of a MultiEngine; use MultiEngine.Run")
	}
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 {
		if e.heap[0].at > deadline {
			break
		}
		e.dispatch(e.popMin())
	}
	if deadline != MaxTime && deadline > e.now {
		e.now = deadline
	}
}

// head reports the earliest calendar time, or MaxTime when the calendar
// is empty.
func (e *Engine) head() Time {
	if len(e.heap) == 0 {
		return MaxTime
	}
	return e.heap[0].at
}

// runBound dispatches every event strictly before bound — one domain's
// share of a MultiEngine barrier round. Unlike RunUntil's inclusive
// deadline, the bound is exclusive: events exactly at the bound may still
// be preempted by a cross-domain arrival at the same timestamp with a
// smaller merge key, so they wait for the next round. The clock is left at
// the last executed event, not advanced to the bound, because the next
// round's window is computed from real event times.
func (e *Engine) runBound(bound Time) {
	if e.running {
		panic("sim: re-entrant round execution")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 && e.heap[0].at < bound {
		e.dispatch(e.popMin())
	}
}

// Advance moves the clock forward by d without dispatching events. It is
// intended for driving the engine from tests and from analytic fast-paths
// that account for long busy periods without per-cycle events.
func (e *Engine) Advance(d Time) {
	if d < 0 {
		panic("sim: negative advance")
	}
	target := e.now + d
	if len(e.heap) > 0 && e.heap[0].at < target {
		panic(fmt.Sprintf("sim: Advance(%v) would skip event scheduled at %v", d, e.heap[0].at))
	}
	e.now = target
}
