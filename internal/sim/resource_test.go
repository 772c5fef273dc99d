package sim

import (
	"fmt"
	"testing"
)

// Cancelled events must leave the calendar immediately — a long-lived
// simulation that schedules-and-cancels timeout guards must not accumulate
// dead events until their nominal time.
func TestCancelRemovesFromHeap(t *testing.T) {
	eng := NewEngine()
	var evs []EventHandle
	for i := 0; i < 100; i++ {
		evs = append(evs, eng.At(Time(1000+i), func() { t.Error("cancelled event fired") }))
	}
	if eng.Pending() != 100 {
		t.Fatalf("pending = %d, want 100", eng.Pending())
	}
	// Cancel from the middle, the front and the back of the heap.
	for i, ev := range evs {
		ev.Cancel()
		if want := 100 - i - 1; eng.Pending() != want {
			t.Fatalf("after %d cancels pending = %d, want %d", i+1, eng.Pending(), want)
		}
	}
	// Double-cancel is a no-op and must not corrupt the (empty) heap.
	evs[0].Cancel()
	if eng.Pending() != 0 {
		t.Fatalf("pending after double cancel = %d, want 0", eng.Pending())
	}
	eng.Run()
	if eng.Executed() != 0 {
		t.Errorf("executed %d cancelled events", eng.Executed())
	}
}

func TestCancelInterleavedWithDispatch(t *testing.T) {
	eng := NewEngine()
	fired := 0
	keep := eng.At(10, func() { fired++ })
	drop := eng.At(20, func() { fired++ })
	eng.At(15, func() { drop.Cancel() })
	eng.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	// Cancelling an already-fired event is a no-op.
	keep.Cancel()
	if eng.Pending() != 0 {
		t.Errorf("pending = %d", eng.Pending())
	}
}

func TestRegistryNamesAndWalk(t *testing.T) {
	eng := NewEngine()
	NewLink(eng, "mem.ch0", 1e9, 0)
	NewLink(eng, "aaa", 1e9, 0)
	NewTokenQueue(eng, "stream.a-b", 4)
	NewQueue(eng, "mem.ch0.rdq", 8)
	NewWindow(eng, "nvme.qp0.sq", 32)

	names := eng.Stats().Names()
	want := []string{"aaa", "mem.ch0", "mem.ch0.rdq", "nvme.qp0.sq", "stream.a-b"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	// Walk visits in the same sorted order.
	var walked []string
	eng.Stats().Walk(func(name string, res Resource) {
		walked = append(walked, name)
		if res.Name() != name {
			t.Errorf("resource %q self-reports %q", name, res.Name())
		}
	})
	for i := range want {
		if walked[i] != want[i] {
			t.Errorf("walk[%d] = %q, want %q", i, walked[i], want[i])
		}
	}
	if _, ok := eng.Stats().Lookup("mem.ch0"); !ok {
		t.Error("lookup mem.ch0 failed")
	}
	if _, ok := eng.Stats().Lookup("nope"); ok {
		t.Error("lookup of unknown name succeeded")
	}
}

// Duplicate diagnostic names must stay registered and addressable: the
// registry uniquifies deterministically instead of failing or shadowing.
func TestRegistryDuplicateNames(t *testing.T) {
	eng := NewEngine()
	a := NewLink(eng, "dup", 1e9, 0)
	b := NewLink(eng, "dup", 1e9, 0)
	c := NewLink(eng, "dup", 1e9, 0)
	if a.Name() != "dup" || b.Name() != "dup#2" || c.Name() != "dup#3" {
		t.Errorf("names = %q %q %q", a.Name(), b.Name(), c.Name())
	}
	if eng.Stats().Len() != 3 {
		t.Errorf("registry len = %d, want 3", eng.Stats().Len())
	}
}

// Capacity-1 ping-pong through the Port interface: put/get strictly
// alternate, with the producer parking whenever the single slot is taken.
func TestPortCapacityOnePingPong(t *testing.T) {
	eng := NewEngine()
	var q Port = NewTokenQueue(eng, "pp", 1)

	var got []int
	const n = 5
	// Producer: puts 0..n-1 back to back; each put's done callback issues
	// the next put, so puts queue up against the single slot.
	var produce func(i int)
	produce = func(i int) {
		if i >= n {
			return
		}
		q.Put(i, func() { produce(i + 1) })
	}
	// Consumer: drains one item per 10ps tick.
	var consume func()
	consume = func() {
		q.Get(func(item any) {
			got = append(got, item.(int))
			if len(got) < n {
				eng.Schedule(10, consume)
			}
		})
	}
	eng.Schedule(0, func() { produce(0) })
	eng.Schedule(5, consume)
	eng.Run()

	if len(got) != n {
		t.Fatalf("consumed %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Errorf("got[%d] = %d", i, v)
		}
	}
	st := q.ResourceStats()
	if st.Kind != KindPort {
		t.Errorf("kind = %v", st.Kind)
	}
	if st.MaxOccupancy != 1 {
		t.Errorf("max occupancy = %d, want 1 (capacity-1 queue)", st.MaxOccupancy)
	}
	if st.Stalls == 0 {
		t.Error("ping-pong produced no park events")
	}
	if q.Len() != 0 {
		t.Errorf("residual occupancy %d", q.Len())
	}
}

// Parked producers and parked consumers must wake in FIFO order.
func TestPortWakeOrderFIFO(t *testing.T) {
	eng := NewEngine()
	var q Port = NewTokenQueue(eng, "fifo", 1)

	// Fill the slot, then park three producers.
	q.Put("fill", nil)
	var accepted []string
	for _, tag := range []string{"p0", "p1", "p2"} {
		tag := tag
		q.Put(tag, func() { accepted = append(accepted, tag) })
	}
	if len(accepted) != 0 {
		t.Fatalf("producers accepted early: %v", accepted)
	}
	// Drain: each get frees the slot for the oldest parked producer.
	var items []string
	for i := 0; i < 4; i++ {
		q.Get(func(item any) { items = append(items, item.(string)) })
	}
	wantItems := []string{"fill", "p0", "p1", "p2"}
	for i := range wantItems {
		if items[i] != wantItems[i] {
			t.Errorf("items[%d] = %q, want %q", i, items[i], wantItems[i])
		}
	}
	wantAccept := []string{"p0", "p1", "p2"}
	for i := range wantAccept {
		if accepted[i] != wantAccept[i] {
			t.Errorf("accepted[%d] = %q, want %q", i, accepted[i], wantAccept[i])
		}
	}

	// Now park three getters on the empty queue; puts must serve them
	// oldest-first.
	var served []string
	for _, tag := range []string{"g0", "g1", "g2"} {
		tag := tag
		q.Get(func(item any) { served = append(served, tag+":"+item.(string)) })
	}
	q.Put("a", nil)
	q.Put("b", nil)
	q.Put("c", nil)
	wantServed := []string{"g0:a", "g1:b", "g2:c"}
	for i := range wantServed {
		if served[i] != wantServed[i] {
			t.Errorf("served[%d] = %q, want %q", i, served[i], wantServed[i])
		}
	}
}

// Max-occupancy accounting must include items admitted from the parked
// producer list, not only direct puts.
func TestPortMaxOccupancyAccounting(t *testing.T) {
	eng := NewEngine()
	q := NewTokenQueue(eng, "occ", 3)
	for i := 0; i < 5; i++ {
		q.Put(i, nil) // 3 buffered, 2 parked
	}
	if got := q.MaxOccupancy(); got != 3 {
		t.Errorf("max occupancy = %d, want 3", got)
	}
	if q.PutWaits() != 2 {
		t.Errorf("put waits = %d, want 2", q.PutWaits())
	}
	// Draining admits the parked producers into the freed slots: the queue
	// must refill to capacity and the high-water mark stay at 3.
	if v, ok := q.TryGet(); !ok || v.(int) != 0 {
		t.Fatalf("tryget = %v,%v", v, ok)
	}
	if q.Len() != 3 {
		t.Errorf("len after refill = %d, want 3", q.Len())
	}
	for q.Len() > 0 {
		q.TryGet()
	}
	if got := q.MaxOccupancy(); got != 3 {
		t.Errorf("final max occupancy = %d, want 3", got)
	}
	st := q.ResourceStats()
	if st.Ops != 5 {
		t.Errorf("ops = %d, want 5 puts", st.Ops)
	}
	// Parked producers waited zero simulated time here (all at t=0), but
	// every park is still a stall event.
	if st.Stalls != 2 {
		t.Errorf("stalls = %d, want 2", st.Stalls)
	}
}

func TestQueueOutOfOrderRemoval(t *testing.T) {
	eng := NewEngine()
	q := NewQueue(eng, "q", 3)
	for i := 0; i < 3; i++ {
		if !q.Offer(i) {
			t.Fatalf("offer %d rejected", i)
		}
	}
	if q.Offer(99) {
		t.Error("offer above capacity accepted")
	}
	if !q.Full() {
		t.Error("not full at capacity")
	}
	eng.Advance(100)
	// Remove the middle entry first (a row hit overtaking).
	if v := q.RemoveAt(1).(int); v != 1 {
		t.Errorf("removed %d, want 1", v)
	}
	if v := q.At(0).(int); v != 0 {
		t.Errorf("head = %d, want 0", v)
	}
	if v := q.RemoveAt(0).(int); v != 0 {
		t.Errorf("removed %d, want 0", v)
	}
	if v := q.RemoveAt(0).(int); v != 2 {
		t.Errorf("removed %d, want 2", v)
	}
	st := q.ResourceStats()
	if st.Kind != KindQueue || st.Ops != 3 || st.Stalls != 1 || st.MaxOccupancy != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.Wait != 300 {
		t.Errorf("wait = %v, want 300 (3 entries × 100ps)", st.Wait)
	}
}

func TestWindowDepthLimit(t *testing.T) {
	eng := NewEngine()
	w := NewWindow(eng, "w", 2)
	// Two ops admitted immediately; completions at 100 and 200.
	if at := w.Admit(0); at != 0 {
		t.Errorf("first admit at %v", at)
	}
	w.Complete(100)
	if at := w.Admit(0); at != 0 {
		t.Errorf("second admit at %v", at)
	}
	w.Complete(200)
	if w.Outstanding() != 2 {
		t.Errorf("outstanding = %d", w.Outstanding())
	}
	// Third op must wait for the oldest completion (t=100).
	if at := w.Admit(0); at != 100 {
		t.Errorf("third admit at %v, want 100", at)
	}
	w.Complete(300)
	st := w.ResourceStats()
	if st.Kind != KindWindow || st.Ops != 3 || st.Stalls != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Wait != 100 {
		t.Errorf("wait = %v, want 100", st.Wait)
	}
	if st.MaxOccupancy != 2 {
		t.Errorf("max occupancy = %d, want 2", st.MaxOccupancy)
	}
}

// The Connection interface must be satisfiable by shared-layer users
// without reaching for the concrete Link type.
func TestConnectionInterfaceThroughRegistry(t *testing.T) {
	eng := NewEngine()
	NewLink(eng, "c", 1e9, 5)
	res, ok := eng.Stats().Lookup("c")
	if !ok {
		t.Fatal("link not registered")
	}
	conn, ok := res.(Connection)
	if !ok {
		t.Fatal("registered link is not a Connection")
	}
	done := conn.Transfer(1000)
	if done <= 0 {
		t.Errorf("transfer done = %v", done)
	}
	st := conn.ResourceStats()
	if st.Kind != KindConnection || st.Bytes != 1000 || st.Ops != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRegistryAnonName(t *testing.T) {
	eng := NewEngine()
	l := NewLink(eng, "", 1e9, 0)
	if l.Name() != "anon" {
		t.Errorf("empty name registered as %q", l.Name())
	}
}

func ExampleStatsRegistry() {
	eng := NewEngine()
	NewLink(eng, "mem.ch0", 8e9, 0)
	NewTokenQueue(eng, "stream.fe-sl", 2)
	eng.Stats().Walk(func(name string, res Resource) {
		fmt.Println(name, string(res.ResourceStats().Kind))
	})
	// Output:
	// mem.ch0 connection
	// stream.fe-sl port
}
