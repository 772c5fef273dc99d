package sim

import (
	"fmt"
	"testing"
)

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

// Capacity-1 ping-pong, the GAM stream buffers' pattern: a producer puts
// every 10ps and a consumer takes the item back out 5ps later, so puts and
// gets strictly alternate and the single slot is never over- or under-run.
func TestPortCapacityOnePingPong(t *testing.T) {
	eng := NewEngine()
	q := NewTokenQueue(eng, "pp", 1)

	var got []int
	const n = 5
	for i := 0; i < n; i++ {
		at := Time(10 * i)
		eng.At(at, func() { q.Put(i, nil) })
		eng.At(at+5, func() { q.Get(func(item any) { got = append(got, item.(int)) }) })
	}
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
	if st.Ops != n {
		t.Errorf("ops = %d, want %d puts", st.Ops, n)
	}
	if st.MaxOccupancy != 1 {
		t.Errorf("max occupancy = %d, want 1 (capacity-1 queue)", st.MaxOccupancy)
	}
	if st.Stalls != 0 || st.Wait != 0 {
		t.Errorf("stalls = %d, wait = %v; a put or get never waits", st.Stalls, st.Wait)
	}
	if q.Len() != 0 {
		t.Errorf("residual occupancy %d", q.Len())
	}
}

// Max-occupancy accounting must track the high-water mark across a queue
// that fills, drains partly, refills and empties.
func TestPortMaxOccupancyAccounting(t *testing.T) {
	eng := NewEngine()
	q := NewTokenQueue(eng, "occ", 3)
	for i := 0; i < 3; i++ {
		q.Put(i, nil)
	}
	if got := q.MaxOccupancy(); got != 3 {
		t.Errorf("max occupancy = %d, want 3", got)
	}
	var got []int
	get := func(v any) { got = append(got, v.(int)) }
	q.Get(get)
	q.Put(3, nil) // refill the freed slot
	if q.Len() != 3 {
		t.Errorf("len after refill = %d, want 3", q.Len())
	}
	for q.Len() > 0 {
		q.Get(get)
	}
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("got %v, want [0 1 2 3]", got)
	}
	if got := q.MaxOccupancy(); got != 3 {
		t.Errorf("final max occupancy = %d, want 3", got)
	}
	st := q.ResourceStats()
	if st.Ops != 4 {
		t.Errorf("ops = %d, want 4 puts", st.Ops)
	}
	if st.Stalls != 0 || st.Occupancy != 0 || st.MaxOccupancy != 3 {
		t.Errorf("stats = %+v, want no stalls, empty, high-water mark 3", st)
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
	eng.RunUntil(100) // an empty calendar: the clock moves to 100
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

// A link looked up through the registry is a Resource that reports its
// transfers as connection stats.
func TestConnectionInterfaceThroughRegistry(t *testing.T) {
	eng := NewEngine()
	NewLink(eng, "c", 1e9, 5)
	res, ok := eng.Stats().Lookup("c")
	if !ok {
		t.Fatal("link not registered")
	}
	link, ok := res.(*Link)
	if !ok {
		t.Fatalf("registered resource is a %T, want *Link", res)
	}
	done := link.Transfer(1000)
	if done <= 0 {
		t.Errorf("transfer done = %v", done)
	}
	st := res.ResourceStats()
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
