package sim

import "testing"

// assertDrained is the shared benchmark postcondition: the calendar must be
// empty (no leaked events) and the engine must have dispatched exactly the
// expected number of events — an Executed()-based runaway guard that turns
// an accidental self-rescheduling loop into a benchmark failure instead of
// a silently inflated ns/op.
func assertDrained(b *testing.B, e *Engine, wantExecuted uint64) {
	b.Helper()
	if p := e.Pending(); p != 0 {
		b.Fatalf("calendar not drained: %d events pending", p)
	}
	if got := e.Executed(); got != wantExecuted {
		b.Fatalf("executed %d events, want %d (runaway or dropped dispatch)", got, wantExecuted)
	}
}

// BenchmarkEngineEvents measures raw event dispatch throughput — the
// simulator's fundamental cost unit — on the closure (func()) API. The
// single fire closure is created once, so this isolates calendar cost.
func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine()
	var fire func()
	count := 0
	fire = func() {
		count++
		if count < b.N {
			e.Schedule(Nanosecond, fire)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, fire)
	e.Run()
	b.StopTimer()
	assertDrained(b, e, uint64(b.N))
}

// chainHandler re-schedules itself until n events have fired — the
// closure-free analogue of BenchmarkEngineEvents' fire loop.
type chainHandler struct {
	count, n int
}

func (h *chainHandler) Fire(e *Engine, _ uint64) {
	h.count++
	if h.count < h.n {
		e.ScheduleCall(Nanosecond, h, 0)
	}
}

// BenchmarkEngineScheduleCall measures the allocation-free fast path:
// schedule + dispatch through a preallocated Handler.
func BenchmarkEngineScheduleCall(b *testing.B) {
	e := NewEngine()
	h := &chainHandler{n: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleCall(0, h, 0)
	e.Run()
	b.StopTimer()
	assertDrained(b, e, uint64(b.N))
}

// BenchmarkEngineFanOut measures heap behaviour with many pending events.
func BenchmarkEngineFanOut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97)*Nanosecond, func() {})
		}
		e.Run()
		if i == 0 {
			assertDrained(b, e, 1000)
		}
	}
}

// BenchmarkLinkTransfers measures the contended-link fast path.
func BenchmarkLinkTransfers(b *testing.B) {
	e := NewEngine()
	l := NewLink(e, "bench", 1e9, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Transfer(4096)
	}
}

// BenchmarkTokenQueue measures the stream-buffer primitive.
func BenchmarkTokenQueue(b *testing.B) {
	e := NewEngine()
	q := NewTokenQueue(e, "bench", 8)
	sink := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Put(i, nil)
		q.Get(sink)
	}
}

// BenchmarkEngineArrivalLane measures an open-loop front end: 100,000
// arrivals queued before the run and drained beside a small runtime heap
// (each arrival schedules one event 3 µs later, one arrival per µs),
// once through the arrival lane and once through AtCall, where every
// arrival sits in the heap from set-up on. One op queues and drains the
// whole batch; ops reuse one engine, so only the first grows its arrays.
func BenchmarkEngineArrivalLane(b *testing.B) {
	const arrivals = 100_000
	for _, c := range []struct {
		name  string
		queue func(e *Engine, t Time, h Handler)
	}{
		{"lane", func(e *Engine, t Time, h Handler) { e.AtCallInOrder(t, h, 0) }},
		{"AtCall", func(e *Engine, t Time, h Handler) { e.AtCall(t, h, 0) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine()
			h := &relayHandler{delay: 3 * Microsecond}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base := e.Now()
				for j := range arrivals {
					c.queue(e, base+Time(j+1)*Microsecond, h)
				}
				e.Run()
			}
			b.StopTimer()
			assertDrained(b, e, uint64(2*arrivals*b.N))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals*b.N), "ns/arrival")
		})
	}
}
