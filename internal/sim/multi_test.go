package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// recorder logs (domain id, time, arg) triples in execution order.
type recorder struct {
	log []string
}

func (r *recorder) Fire(eng *Engine, arg uint64) {
	r.log = append(r.log, fmt.Sprintf("d%d t%d a%d", eng.id, eng.Now(), arg))
}

// forwarder re-exports each received event to a destination domain via a
// cross link, carrying the arg through.
type forwarder struct {
	link *CrossLink
	dst  *Engine
	n    int64
	next Handler
}

func (f *forwarder) Fire(eng *Engine, arg uint64) {
	f.link.Send(f.dst, f.n, f.next, arg)
}

func TestMultiEngineSerialBasics(t *testing.T) {
	m := NewMultiEngine(2)
	if m.Domains() != 2 {
		t.Fatalf("Domains() = %d", m.Domains())
	}
	if m.Domain(0).Stats() != m.Domain(1).Stats() {
		t.Fatal("domains must share one StatsRegistry")
	}
	rec := &recorder{}
	m.Domain(0).AtCall(5, rec, 1)
	m.Domain(1).AtCall(3, rec, 2)
	m.Domain(1).AtCall(9, rec, 3)
	m.Run()
	// Domains are unconnected → lookahead is MaxTime → one round runs
	// everything; intra-domain order is by time, cross-domain interleaving
	// within a round is by domain id.
	want := []string{"d0 t5 a1", "d1 t3 a2", "d1 t9 a3"}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("log = %v, want %v", rec.log, want)
	}
	if m.Executed() != 3 {
		t.Fatalf("Executed() = %d", m.Executed())
	}
	if m.Now() != 9 {
		t.Fatalf("Now() = %v", m.Now())
	}
	if m.Rounds() != 1 {
		t.Fatalf("Rounds() = %d, want 1 for unconnected domains", m.Rounds())
	}
}

func TestDomainRunPanicsUnderMulti(t *testing.T) {
	m := NewMultiEngine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a MultiEngine domain must panic")
		}
	}()
	m.Domain(0).Run()
}

func TestCrossLinkDelivery(t *testing.T) {
	m := NewMultiEngine(2)
	a, b := m.Domain(0), m.Domain(1)
	x := NewCrossLink(a, "x.ab", 1e9, 10) // 1 GB/s, 10 ps latency
	if m.Lookahead() != 10 {
		t.Fatalf("Lookahead() = %v", m.Lookahead())
	}
	rec := &recorder{}
	// At t=0 in a, send 1000 bytes (1 µs occupancy at 1 GB/s = 1e6 ps... use
	// small sizes): 1 byte → duration 1 ps at 1e12 is below; just compute.
	a.AtCall(0, &forwarder{link: x, dst: b, n: 0, next: rec}, 7)
	m.Run()
	want := []string{"d1 t10 a7"}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("log = %v, want %v", rec.log, want)
	}
	if x.Link().Transfers() != 0 {
		t.Fatal("zero-byte control send must not count as a transfer")
	}
}

// TestCrossDomainSameTimestampStableOrder pins the determinism keystone:
// same-timestamp events exported from two different domains into a third
// merge in (time, source domain id, source export seq) order.
func TestCrossDomainSameTimestampStableOrder(t *testing.T) {
	m := NewMultiEngine(3)
	a, b, c := m.Domain(0), m.Domain(1), m.Domain(2)
	xa := NewCrossLink(a, "x.a", 1e9, 5)
	xb := NewCrossLink(b, "x.b", 1e9, 5)
	rec := &recorder{}
	// Both sources fire at t=0 and export zero-byte messages arriving
	// at the identical destination timestamp t=5. Source b schedules
	// two, a schedules one between them in arg order; the merged order
	// must be (src 0 first), then b's exports in its own xseq order.
	b.AtCall(0, &forwarder{link: xb, dst: c, next: rec}, 20)
	b.AtCall(0, &forwarder{link: xb, dst: c, next: rec}, 21)
	a.AtCall(0, &forwarder{link: xa, dst: c, next: rec}, 10)
	m.Run()
	want := []string{"d2 t5 a10", "d2 t5 a20", "d2 t5 a21"}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("log = %v, want %v", rec.log, want)
	}
}

// TestEmptyDomainNoDeadlock: a domain with zero pending events must not
// stall the barrier — and must still receive and execute late arrivals.
func TestEmptyDomainNoDeadlock(t *testing.T) {
	m := NewMultiEngine(3)
	a, c := m.Domain(0), m.Domain(2) // domain 1 stays empty throughout
	x := NewCrossLink(a, "x.ac", 1e9, 7)
	rec := &recorder{}
	a.AtCall(0, &forwarder{link: x, dst: c, next: rec}, 1)
	m.Run()
	want := []string{"d2 t7 a1"}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("log = %v, want %v", rec.log, want)
	}
	if m.Domain(1).Executed() != 0 {
		t.Fatal("empty domain executed events")
	}
}

// chainRelay bounces a token between two domains a fixed number of hops,
// recording each arrival — exercises repeated mailbox handoffs and many
// barrier rounds.
type chainRelay struct {
	links [2]*CrossLink
	doms  [2]*Engine
	rec   *recorder
	hops  uint64
}

func (cr *chainRelay) Fire(eng *Engine, arg uint64) {
	cr.rec.Fire(eng, arg)
	if arg >= cr.hops {
		return
	}
	next := 1 - int(eng.id)
	cr.links[eng.id].Send(cr.doms[next], 64, cr, arg+1)
}

// TestMultiEngineProgress: after a run, the coordinator reports the
// wired lookahead, the rounds it executed, and each domain's clock and
// dispatch count — the view the flight recorder samples at barriers.
func TestMultiEngineProgress(t *testing.T) {
	m := NewMultiEngine(2)
	a, b := m.Domain(0), m.Domain(1)
	x := NewCrossLink(a, "x.ab", 1e9, 10)
	rec := &recorder{}
	a.AtCall(0, &forwarder{link: x, dst: b, next: rec}, 1)
	m.Run()
	if m.Lookahead() != 10 {
		t.Fatalf("Lookahead = %v", m.Lookahead())
	}
	if m.Rounds() != 2 {
		t.Fatalf("Rounds = %d, want 2 (the send, then its delivery)", m.Rounds())
	}
	if a.Executed() != 1 || b.Executed() != 1 {
		t.Fatalf("per-domain executed = %d, %d", a.Executed(), b.Executed())
	}
	if a.Now() != 0 || b.Now() != 10 {
		t.Fatalf("domain clocks = %v, %v; want 0, 10", a.Now(), b.Now())
	}
}

func TestCrossLinkValidation(t *testing.T) {
	m := NewMultiEngine(2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero latency", func() { NewCrossLink(m.Domain(0), "bad", 1e9, 0) })
	mustPanic("standalone engine", func() { NewCrossLink(NewEngine(), "bad", 1e9, 10) })
	mustPanic("zero domains", func() { NewMultiEngine(0) })
	mustPanic("export to self", func() {
		m.Domain(0).ExportAt(m.Domain(0), 100, &recorder{}, 0)
	})
	mustPanic("export to foreign multi", func() {
		m2 := NewMultiEngine(2)
		m.Domain(0).ExportAt(m2.Domain(0), 100, &recorder{}, 0)
	})
	mustPanic("export inside lookahead", func() {
		NewCrossLink(m.Domain(0), "x.ok", 1e9, 50)
		m.Domain(0).ExportAt(m.Domain(1), 10, &recorder{}, 0)
	})
}

// nop is a stateless handler safe to fire from any domain.
type nop struct{}

func (nop) Fire(*Engine, uint64) {}

// spinner schedules dense self-traffic on its domain, periodically
// exports into its neighbour's mailbox, and records the largest goroutine
// count it observes while firing.
type spinner struct {
	link    *CrossLink
	peerDom *Engine
	until   Time
	maxG    *int
}

func (s *spinner) Fire(eng *Engine, arg uint64) {
	if g := runtime.NumGoroutine(); g > *s.maxG {
		*s.maxG = g
	}
	if eng.Now() >= s.until {
		return
	}
	eng.ScheduleCall(3, s, arg+1)
	if arg%4 == 0 {
		s.link.Send(s.peerDom, 64, nop{}, arg)
	}
}

// TestMultiEngineRunStartsNoGoroutines: the coordinator executes every
// domain on the caller's goroutine, so four mutually linked domains with
// dense traffic and many barrier rounds never raise the goroutine count.
func TestMultiEngineRunStartsNoGoroutines(t *testing.T) {
	m := NewMultiEngine(4)
	maxG := 0
	for i := 0; i < 4; i++ {
		s := &spinner{until: 2000, maxG: &maxG}
		s.link = NewCrossLink(m.Domain(i), fmt.Sprintf("x.%d", i), 1e9, 25)
		s.peerDom = m.Domain((i + 1) % 4)
		m.Domain(i).AtCall(Time(i), s, 0)
	}
	// Goroutines left over from earlier tests may exit during Run, so the
	// count can fall; it must never rise.
	before := runtime.NumGoroutine()
	m.Run()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d before Run, %d after", before, after)
	}
	if maxG > before {
		t.Fatalf("goroutines peaked at %d during Run, %d before", maxG, before)
	}
	if m.Rounds() < 2 {
		t.Fatalf("rounds = %d, want a multi-round run", m.Rounds())
	}
	for i := 0; i < 4; i++ {
		if m.Domain(i).Executed() == 0 {
			t.Fatalf("domain %d idle", i)
		}
	}
}

// TestMultiEngineModelPanicPropagates: a model panic inside a domain
// surfaces unchanged on the caller of Run.
func TestMultiEngineModelPanicPropagates(t *testing.T) {
	m := NewMultiEngine(2)
	m.Domain(0).At(5, func() { panic("model bug") })
	m.Domain(1).At(5, func() {})
	defer func() {
		if r := recover(); r != "model bug" {
			t.Fatalf("recover() = %v", r)
		}
	}()
	m.Run()
}

// barrierLog records every coordinator callback: the round counter, the
// frontier, each domain's clock and the final flag — enough to pin the
// callback protocol. Observers sharing a journal append their name to it
// on every callback, making notification order observable.
type barrierLog struct {
	name    string
	journal *[]string
	entries []string
	finals  int
}

func (b *barrierLog) OnBarrier(m *MultiEngine, mailboxes []int, final bool) {
	if b.journal != nil {
		*b.journal = append(*b.journal, b.name)
	}
	e := fmt.Sprintf("r%d f%v now%v", m.Rounds(), final, m.Now())
	for i := 0; i < m.Domains(); i++ {
		e += fmt.Sprintf(" d%d@%v/mb%d", i, m.Domain(i).Now(), mailboxes[i])
	}
	b.entries = append(b.entries, e)
	if final {
		b.finals++
	}
}

// TestBarrierObserver: every observer fires after every round plus
// exactly once at termination, in argument order, sees quiescent barrier
// state, never perturbs the round structure, and records an identical
// sequence on every run.
func TestBarrierObserver(t *testing.T) {
	run := func(obs ...BarrierObserver) uint64 {
		m := NewMultiEngine(2)
		m.SetBarrierObserver(obs...)
		cr := &chainRelay{rec: &recorder{}, hops: 12}
		cr.doms = [2]*Engine{m.Domain(0), m.Domain(1)}
		cr.links[0] = NewCrossLink(m.Domain(0), "bx.01", 1e9, 100)
		cr.links[1] = NewCrossLink(m.Domain(1), "bx.10", 1e9, 100)
		m.Domain(0).AtCall(0, cr, 0)
		m.Run()
		return m.Rounds()
	}
	obs1 := &barrierLog{}
	r1 := run(obs1)
	if r1 < 12 {
		t.Fatalf("expected ≥12 barrier rounds for 12 hops, got %d", r1)
	}
	if obs1.finals != 1 {
		t.Fatalf("final callbacks = %d, want 1", obs1.finals)
	}
	// One callback per executed round plus the terminating one.
	if got, want := len(obs1.entries), int(r1)+1; got != want {
		t.Fatalf("callbacks = %d, want %d (rounds %d + final)", got, want, r1)
	}
	obs2 := &barrierLog{}
	if r2 := run(obs2); r2 != r1 || !reflect.DeepEqual(obs1.entries, obs2.entries) {
		t.Fatalf("observer sequences diverge across runs:\n 1: %v\n 2: %v", obs1.entries, obs2.entries)
	}
	// Observation must be free: the round count with no observer attached
	// matches the observed runs bit for bit.
	if plain := run(); plain != r1 {
		t.Fatalf("observer changed round structure: %d vs %d", plain, r1)
	}
	// Two observers both see every round and the single final barrier,
	// notified in argument order.
	var journal []string
	a := &barrierLog{name: "a", journal: &journal}
	b := &barrierLog{name: "b", journal: &journal}
	if r := run(a, b); r != r1 {
		t.Fatalf("two observers changed round structure: %d vs %d", r, r1)
	}
	if !reflect.DeepEqual(a.entries, obs1.entries) || !reflect.DeepEqual(b.entries, obs1.entries) {
		t.Fatalf("an observer missed barriers:\n a: %v\n b: %v", a.entries, b.entries)
	}
	if a.finals != 1 || b.finals != 1 {
		t.Fatalf("final callbacks = %d/%d, want 1/1", a.finals, b.finals)
	}
	for i := 0; i < len(journal); i += 2 {
		if journal[i] != "a" || journal[i+1] != "b" {
			t.Fatalf("barrier %d notified %v, want a then b", i/2, journal[i:i+2])
		}
	}
	// Re-running after new work submits fires a second final callback;
	// SetBarrierObserver with no arguments detaches every observer.
	m := NewMultiEngine(1)
	lg := &barrierLog{}
	m.SetBarrierObserver(lg)
	m.Domain(0).At(5, func() {})
	m.Run()
	m.Domain(0).At(m.Now()+5, func() {})
	m.Run()
	if lg.finals != 2 {
		t.Fatalf("finals after two Runs = %d, want 2", lg.finals)
	}
	m.SetBarrierObserver()
	seen := len(lg.entries)
	m.Domain(0).At(m.Now()+5, func() {})
	m.Run()
	if len(lg.entries) != seen {
		t.Fatalf("detached observer saw %d more barriers", len(lg.entries)-seen)
	}
}
