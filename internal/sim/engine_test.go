package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := FromSeconds(-1); got != 0 {
		t.Errorf("FromSeconds(-1) = %v, want 0", got)
	}
	if got := FromSeconds(1e30); got != MaxTime {
		t.Errorf("FromSeconds(huge) = %v, want MaxTime", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2ns"},
		{3 * Microsecond, "3us"},
		{4 * Millisecond, "4ms"},
		{5 * Second, "5s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestClockCycles(t *testing.T) {
	c := MHz(1000) // 1 GHz → 1000 ps period
	if got := c.Period(); got != 1000*Picosecond {
		t.Errorf("Period = %v, want 1000ps", got)
	}
	if got := c.Cycles(1_000_000); got != Millisecond {
		t.Errorf("Cycles(1e6) = %v, want 1ms", got)
	}
	// 273 MHz (Table III on-chip CNN kernel) — no rounding blowup over 1e9 cycles.
	k := MHz(273)
	want := FromSeconds(1e9 / 273e6)
	got := k.Cycles(1e9)
	if diff := got - want; diff < -10 || diff > 10 {
		t.Errorf("Cycles(1e9)@273MHz = %v, want ~%v", got, want)
	}
}

func TestClockPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Schedule(10, func() { order = append(order, 11) }) // FIFO among ties
	e.Run()
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
	if e.Executed() != 4 {
		t.Errorf("Executed = %d, want 4", e.Executed())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(5, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Errorf("fired = %v, want [5 10]", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i*10), func() { count++ })
	}
	e.RunUntil(30)
	if count != 3 {
		t.Errorf("count = %d after RunUntil(30), want 3", count)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
	e.Run()
	if count != 5 {
		t.Errorf("count = %d after Run, want 5", count)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestLinkSerialization(t *testing.T) {
	e := NewEngine()
	// 1 GB/s, zero latency: 1000 bytes take 1 µs.
	l := NewLink(e, "test", 1e9, 0)
	d1 := l.Transfer(1000)
	d2 := l.Transfer(1000)
	if d1 != Microsecond {
		t.Errorf("first transfer done at %v, want 1us", d1)
	}
	if d2 != 2*Microsecond {
		t.Errorf("second transfer done at %v, want 2us (queued)", d2)
	}
	if l.TotalBytes() != 2000 {
		t.Errorf("TotalBytes = %d, want 2000", l.TotalBytes())
	}
	if l.QueuedDelay() != Microsecond {
		t.Errorf("QueuedDelay = %v, want 1us", l.QueuedDelay())
	}
}

func TestLinkLatencyDoesNotOccupyCapacity(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "lat", 1e9, 100*Nanosecond)
	d1 := l.Transfer(1000)
	if d1 != Microsecond+100*Nanosecond {
		t.Errorf("done = %v, want 1.1us", d1)
	}
	// Capacity is free at 1us, not 1.1us: pipelined transfers overlap latency.
	if l.NextFree() != Microsecond {
		t.Errorf("NextFree = %v, want 1us", l.NextFree())
	}
}

func TestLinkZeroBytes(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "z", 1e9, 5*Nanosecond)
	if d := l.Transfer(0); d != 5*Nanosecond {
		t.Errorf("zero transfer done at %v, want latency only", d)
	}
	if l.Transfers() != 0 {
		t.Errorf("zero transfer counted")
	}
}

func TestLinkTransferAtFuture(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "f", 1e9, 0)
	d := l.TransferAt(Microsecond, 1000)
	if d != 2*Microsecond {
		t.Errorf("done = %v, want 2us", d)
	}
}

func TestLinkUtilization(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "u", 1e9, 0)
	l.Transfer(1000) // busy [0,1us]
	e.Schedule(3*Microsecond, func() {
		l.Transfer(1000) // busy [3us,4us]
	})
	e.Run()
	// busy 2us over window [0,4us] = 0.5
	if u := l.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("Utilization = %v, want ~0.5", u)
	}
}

// Property: for any sequence of transfer sizes, the total completion time on
// a contended link equals sum(duration(size_i)) when all transfers are
// issued at time zero — the link conserves capacity.
func TestLinkConservesCapacity(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := NewEngine()
		l := NewLink(e, "p", 1e9, 0)
		var last Time
		var wantBusy Time
		for _, s := range sizes {
			n := int64(s)
			last = l.Transfer(n)
			wantBusy += l.duration(n)
		}
		if len(sizes) == 0 {
			return last == 0
		}
		return last == wantBusy && l.BusyTime() == wantBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTokenQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewTokenQueue(e, "q", 4)
	var got []int
	q.Put(1, nil)
	q.Put(2, nil)
	q.Get(func(v any) { got = append(got, v.(int)) })
	q.Get(func(v any) { got = append(got, v.(int)) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got %v, want [1 2]", got)
	}
}

// Property: items always come out in the order they were put, for any
// interleaving of puts and gets that keeps the queue within its bounds (a
// put into a full queue or a get from an empty one panics; see
// TestTokenQueueFullPutEmptyGetPanic).
func TestTokenQueueOrderProperty(t *testing.T) {
	f := func(ops []bool, capSeed uint8) bool {
		e := NewEngine()
		capacity := int(capSeed%8) + 1
		q := NewTokenQueue(e, "prop", capacity)
		next := 0
		var got []int
		get := func(v any) { got = append(got, v.(int)) }
		for _, isPut := range ops {
			switch {
			case isPut && q.Len() < capacity:
				q.Put(next, nil)
				next++
			case !isPut && q.Len() > 0:
				q.Get(get)
			}
		}
		// Drain: everything still buffered must come out in order.
		for q.Len() > 0 {
			q.Get(get)
		}
		if len(got) != next {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return q.MaxOccupancy() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A TokenQueue completes every put and get at once, so a put into a full
// queue and a get from an empty one can only be model bugs: both panic,
// and neither changes the queue.
func TestTokenQueueFullPutEmptyGetPanic(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	q := NewTokenQueue(NewEngine(), "bounds", 2)
	mustPanic("get from an empty queue", func() { q.Get(func(any) { t.Error("empty get delivered an item") }) })
	done := 0
	q.Put(1, func() { done++ })
	q.Put(2, func() { done++ })
	if done != 2 {
		t.Fatalf("%d of 2 puts completed at once", done)
	}
	mustPanic("put into a full queue", func() { q.Put(3, func() { t.Error("full put completed") }) })
	if st := q.ResourceStats(); st.Ops != 2 || st.Occupancy != 2 || st.MaxOccupancy != 2 || st.Stalls != 0 || st.Wait != 0 {
		t.Errorf("stats after the rejected put = %+v, want 2 ops, occupancy 2, no stalls or wait", st)
	}
	var got []int
	q.Get(func(v any) { got = append(got, v.(int)) })
	q.Get(func(v any) { got = append(got, v.(int)) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got %v, want [1 2]", got)
	}
}
