package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// FuzzMultiEngine runs a random event graph twice, once split across the
// domains of a MultiEngine and once with every domain folded onto one
// Engine, and requires identical per-domain dispatch logs.
//
// Same-time events of one domain may legitimately dispatch in different
// orders on the two engines (scheduling order on one, barrier merge order
// on the other), so the graph keeps each domain's timestamps distinct by
// construction. Every delay, latency and link occupancy is a multiple of
// graphUnit, and a root or local event i adds 1<<i below it to the time it
// derives from, its parent's. An arrival's time derives from the send that
// opened its link's busy period, and only roots and local events send, at
// most once each. Derivation runs forward in time, so the bits below
// graphUnit name a chain that no other event of the domain shares.
const (
	graphMaxEvents = 24
	graphUnit      = Time(1) << graphMaxEvents
	// graphBandwidth makes one byte occupy a link for exactly one unit.
	graphBandwidth = float64(Second) / float64(graphUnit)
)

// graphEvent is one event of a fuzzed graph: a root scheduled before the
// run, or a local or remote child of one earlier event.
type graphEvent struct {
	dom    int
	at     Time  // a root's time, or a local child's delay after its parent
	bytes  int64 // a remote child's payload, one unit of occupancy per byte
	root   bool
	remote bool
	sends  bool // the event has a remote child
	kids   []int
}

// eventGraph is a decoded fuzz input: each domain's egress latency and the
// events in creation order.
type eventGraph struct {
	lat    []Time
	events []graphEvent
}

// decodeGraph reads an event graph from fuzz bytes:
//
//	b[0]          domains = 2 + b[0]%5
//	next domains  each domain's egress latency, 1 + b%4 units
//	then p, k, v  per event i, at most graphMaxEvents:
//	  p  parent p%(i+1) - 1; -1 makes a root
//	  k  a root runs in domain k%domains; an odd k makes a child remote,
//	     on domain (parent's + 1 + (k>>1)%(domains-1)) % domains, unless
//	     its parent is remote or already sends one; other children are
//	     local
//	  v  a root fires at v%8 units, a local child v%8 units after its
//	     parent, both plus 1<<i; a remote child carries 1 + v%8 bytes
func decodeGraph(b []byte) eventGraph {
	var g eventGraph
	n := 2
	if len(b) > 0 {
		n += int(b[0]) % 5
		b = b[1:]
	}
	for i := range n {
		k := Time(1)
		if i < len(b) {
			k += Time(b[i] % 4)
		}
		g.lat = append(g.lat, k*graphUnit)
	}
	b = b[min(n, len(b)):]
	for i := 0; len(b) >= 3 && i < graphMaxEvents; i, b = i+1, b[3:] {
		p, k, v := b[0], b[1], b[2]
		ev := graphEvent{at: Time(v%8)*graphUnit + Time(1)<<i}
		parent := int(p)%(i+1) - 1
		switch {
		case parent < 0:
			ev.root, ev.dom = true, int(k)%n
		case k&1 == 1 && !g.events[parent].remote && !g.events[parent].sends:
			g.events[parent].sends = true
			ev.remote, ev.at, ev.bytes = true, 0, 1+int64(v%8)
			ev.dom = (g.events[parent].dom + 1 + int(k>>1)%(n-1)) % n
		default:
			ev.dom = g.events[parent].dom
		}
		if parent >= 0 {
			g.events[parent].kids = append(g.events[parent].kids, i)
		}
		g.events = append(g.events, ev)
	}
	return g
}

// graphDispatch is one dispatch log entry.
type graphDispatch struct {
	at Time
	id int
}

// graphRun executes an event graph on either engine layout: cross set
// means a MultiEngine, links set means one folded Engine.
type graphRun struct {
	g         *eventGraph
	logs      [][]graphDispatch
	doms      []*Engine
	cross     []*CrossLink
	links     []*Link
	misrouted int
}

func (r *graphRun) Fire(eng *Engine, arg uint64) {
	ev := &r.g.events[arg]
	if r.cross != nil && eng != r.doms[ev.dom] {
		r.misrouted++
	}
	now := eng.Now()
	r.logs[ev.dom] = append(r.logs[ev.dom], graphDispatch{at: now, id: int(arg)})
	for _, k := range ev.kids {
		kid := &r.g.events[k]
		switch {
		case !kid.remote:
			eng.AtCall(now+kid.at, r, uint64(k))
		case r.cross != nil:
			r.cross[ev.dom].Send(r.doms[kid.dom], kid.bytes, r, uint64(k))
		default:
			eng.AtCall(r.links[ev.dom].TransferAt(now, kid.bytes), r, uint64(k))
		}
	}
}

// barrierAudit checks the coordinator's bookkeeping at every barrier: each
// domain's next time matches its calendar head, and the reported mailbox
// depths, summed over the run, count every cross-domain event once.
type barrierAudit struct {
	staleNext int
	delivered int
}

func (a *barrierAudit) OnBarrier(m *MultiEngine, mailboxes []int, _ bool) {
	for i, d := range m.domains {
		if m.next[i] != d.head() {
			a.staleNext++
		}
		a.delivered += mailboxes[i]
	}
}

// runMulti executes g split across a MultiEngine's domains.
func (g *eventGraph) runMulti() (*graphRun, *MultiEngine, *barrierAudit) {
	m := NewMultiEngine(len(g.lat))
	r := &graphRun{g: g, logs: make([][]graphDispatch, len(g.lat))}
	for i, lat := range g.lat {
		r.doms = append(r.doms, m.Domain(i))
		r.cross = append(r.cross, NewCrossLink(m.Domain(i), fmt.Sprintf("x%d", i), graphBandwidth, lat))
	}
	for i, ev := range g.events {
		if ev.root {
			m.Domain(ev.dom).AtCall(ev.at, r, uint64(i))
		}
	}
	audit := &barrierAudit{}
	m.SetBarrierObserver(audit)
	m.Run()
	return r, m, audit
}

// runFolded executes g with every domain on one Engine, each domain's
// egress link a plain Link on it.
func (g *eventGraph) runFolded() (*graphRun, *Engine) {
	eng := NewEngine()
	r := &graphRun{g: g, logs: make([][]graphDispatch, len(g.lat))}
	for i, lat := range g.lat {
		r.links = append(r.links, NewLink(eng, fmt.Sprintf("x%d", i), graphBandwidth, lat))
	}
	for i, ev := range g.events {
		if ev.root {
			eng.AtCall(ev.at, r, uint64(i))
		}
	}
	eng.Run()
	return r, eng
}

func FuzzMultiEngine(f *testing.F) {
	// Several domains receive mail in one drain: two roots in domain 0
	// (at 1 and 4 ps) each send, to domains 1 and 2, inside the first
	// round; neither destination has a calendar entry yet.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 3, 3, 0})
	// A domain whose calendar has emptied receives mail: domain 1's only
	// root runs in the first round, then domain 0's root sends to it.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 1, 0})
	// Mail lands ahead of a calendar's head: domain 1 holds a root at 7
	// units when domain 0's root sends it an event due at 2, and domain
	// 0's later local event at 3 must not run first.
	f.Add([]byte{0, 0, 0, 0, 1, 7, 0, 0, 0, 2, 1, 0, 2, 0, 3})
	rng := rand.New(rand.NewSource(1))
	for range 16 {
		b := make([]byte, 1+6+3*rng.Intn(graphMaxEvents+1))
		rng.Read(b)
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		g := decodeGraph(b)
		want, single := g.runFolded()
		for d, log := range want.logs {
			for i := 1; i < len(log); i++ {
				if log[i].at <= log[i-1].at {
					t.Fatalf("graph construction broke timestamp uniqueness in domain %d: %v", d, log)
				}
			}
		}
		got, m, audit := g.runMulti()
		for d := range want.logs {
			if !slices.Equal(got.logs[d], want.logs[d]) {
				t.Errorf("domain %d dispatch log:\n multi  %v\n folded %v", d, got.logs[d], want.logs[d])
			}
		}
		if m.Executed() != single.Executed() || single.Executed() != uint64(len(g.events)) {
			t.Errorf("executed %d split, %d folded, want %d", m.Executed(), single.Executed(), len(g.events))
		}
		remote := 0
		for _, ev := range g.events {
			if ev.remote {
				remote++
			}
		}
		if audit.delivered != remote {
			t.Errorf("barriers reported %d delivered cross-domain events, want %d", audit.delivered, remote)
		}
		if audit.staleNext != 0 || got.misrouted != 0 {
			t.Errorf("%d stale next times at barriers, %d events fired in the wrong domain", audit.staleNext, got.misrouted)
		}
	})
}

// FuzzEventLane runs a schedule with many exact time ties twice, once
// queueing its set-up events with AtCallInOrder and once with AtCall
// alone, and requires the two runs to be indistinguishable: the same
// dispatch log, and the same Executed() and Pending() after every step.
// It does so on one Engine and again inside a two-domain MultiEngine,
// where the barrier rounds must match too. The arrival lane promises the
// heap's own (at, seq) order, so any tie the lane breaks differently — a
// lane entry against a runtime event, an out-of-order submission, a lane
// event at a round's bound — shows up as a diverging log.
const (
	laneMaxEvents = 32
	laneUnit      = Nanosecond
)

// laneEvent is one event of a decoded schedule: a set-up event of some
// batch, or a child that an earlier event schedules when it fires.
type laneEvent struct {
	batch  int  // the set-up batch; -1 for a child
	dom    int  // domain 0 or 1 in the MultiEngine runs
	at     Time // a set-up event's offset from its batch's base, or a child's delay
	remote bool // a child that runs in the other domain, one lookahead later
	kids   []int
}

// laneSchedule is a decoded FuzzEventLane input.
type laneSchedule struct {
	lookahead Time
	// spans[j] is how far past its base the single-engine run of batch j
	// runs before batch j+1 is queued; the last batch runs to completion.
	spans  []Time
	events []laneEvent
}

// decodeLane reads a schedule from fuzz bytes:
//
//	b[0]      lookahead = 1 + b[0]%4 units
//	then p, k, v per event i, at most laneMaxEvents:
//	  p  parent p%(i+1) - 1; -1 makes a set-up event
//	  k  a set-up event opens a new batch when k is odd (the first one
//	     always does), whose span is (k>>2)%8 units; it runs in domain
//	     (k>>1)&1; an odd k makes a child remote
//	  v  a set-up event fires v%8 units after its batch's base, a child
//	     v%4 units after its parent (plus the lookahead when remote)
func decodeLane(b []byte) laneSchedule {
	s := laneSchedule{lookahead: laneUnit}
	if len(b) > 0 {
		s.lookahead += Time(b[0]%4) * laneUnit
		b = b[1:]
	}
	for i := 0; len(b) >= 3 && i < laneMaxEvents; i, b = i+1, b[3:] {
		p, k, v := b[0], b[1], b[2]
		parent := int(p)%(i+1) - 1
		var ev laneEvent
		if parent < 0 {
			if k&1 == 1 || len(s.spans) == 0 {
				s.spans = append(s.spans, Time((k>>2)%8)*laneUnit)
			}
			ev = laneEvent{batch: len(s.spans) - 1, dom: int(k>>1) & 1, at: Time(v%8) * laneUnit}
		} else {
			ev = laneEvent{batch: -1, dom: s.events[parent].dom, at: Time(v%4) * laneUnit, remote: k&1 == 1}
			if ev.remote {
				ev.dom = 1 - ev.dom
			}
			s.events[parent].kids = append(s.events[parent].kids, i)
		}
		s.events = append(s.events, ev)
	}
	return s
}

// laneRun executes a schedule; lane selects AtCallInOrder for set-up
// events and children (which must fall back inside a run), m is set for
// the MultiEngine runs.
type laneRun struct {
	s     *laneSchedule
	lane  bool
	m     *MultiEngine
	log   []graphDispatch // id is the event's index<<1 | its domain
	snaps [][4]uint64     // Pending(), Executed(), Rounds(), Now() after each step
}

func (r *laneRun) schedule(eng *Engine, t Time, id int) {
	if r.lane {
		eng.AtCallInOrder(t, r, uint64(id))
	} else {
		eng.AtCall(t, r, uint64(id))
	}
}

func (r *laneRun) Fire(eng *Engine, arg uint64) {
	now := eng.Now()
	r.log = append(r.log, graphDispatch{at: now, id: int(arg)<<1 | eng.ID()})
	for _, k := range r.s.events[arg].kids {
		kid := &r.s.events[k]
		switch {
		case !kid.remote:
			r.schedule(eng, now+kid.at, k)
		case r.m != nil:
			eng.ExportAt(r.m.Domain(kid.dom), now+kid.at+r.s.lookahead, r, uint64(k))
		default:
			r.schedule(eng, now+kid.at+r.s.lookahead, k)
		}
	}
}

func (r *laneRun) OnBarrier(m *MultiEngine, _ []int, _ bool) {
	r.snap(m.Pending(), m.Executed(), m.Rounds(), m.Now())
}

func (r *laneRun) snap(pending int, executed, rounds uint64, now Time) {
	r.snaps = append(r.snaps, [4]uint64{uint64(pending), executed, rounds, uint64(now)})
}

// submit queues batch j's set-up events at base plus their offsets, in
// schedule order; domain picks each event's engine.
func (r *laneRun) submit(j int, base Time, domain func(int) *Engine) {
	for i, ev := range r.s.events {
		if ev.batch == j {
			r.schedule(domain(ev.dom), base+ev.at, i)
		}
	}
}

// runSingle runs the schedule on one Engine: each batch but the last runs
// for its span, the last to completion.
func (s *laneSchedule) runSingle(lane bool) *laneRun {
	e := NewEngine()
	r := &laneRun{s: s, lane: lane}
	for j, span := range s.spans {
		base := e.Now()
		r.submit(j, base, func(int) *Engine { return e })
		r.snap(e.Pending(), e.Executed(), 0, e.Now())
		if j < len(s.spans)-1 {
			e.RunUntil(base + span)
		} else {
			e.Run()
		}
		r.snap(e.Pending(), e.Executed(), 0, e.Now())
	}
	return r
}

// runMulti runs the schedule on a two-domain MultiEngine, every batch to
// completion, snapping the counters at every barrier.
func (s *laneSchedule) runMulti(lane bool) *laneRun {
	m := NewMultiEngine(2)
	NewCrossLink(m.Domain(0), "x", 1e9, s.lookahead)
	r := &laneRun{s: s, lane: lane, m: m}
	m.SetBarrierObserver(r)
	for j := range s.spans {
		r.submit(j, m.Now(), m.Domain)
		r.snap(m.Pending(), m.Executed(), m.Rounds(), m.Now())
		m.Run()
	}
	return r
}

func FuzzEventLane(f *testing.F) {
	// A lane event tied with a runtime event: set-up events at 0 and 2,
	// and the first one's child at 2, which must run after the lane's.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 0, 2})
	// A lane event exactly at a round's bound: domain 1's set-up event at
	// 0 sends domain 0 a child due at the lookahead, 1 unit, where domain
	// 0's lane holds a set-up event; the bound excludes both from round 1.
	f.Add([]byte{0, 0, 2, 0, 1, 1, 0, 0, 0, 1})
	// The lane draining mid-round: lane events at 0, 1 and 2 and a child
	// at 3 all fall inside the first round's 4-unit window.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 1, 0, 0, 2, 1, 0, 3})
	// A second batch after a run: the first batch (0 and 3) runs until 2,
	// leaving its 3 in the lane; the second queues 3, in order behind it,
	// and 2, out of order, which must go to the heap.
	f.Add([]byte{0, 0, 9, 0, 0, 0, 3, 0, 1, 1, 0, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for range 16 {
		b := make([]byte, 1+3*rng.Intn(laneMaxEvents+1))
		rng.Read(b)
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		s := decodeLane(b)
		for _, run := range []struct {
			name string
			run  func(bool) *laneRun
		}{{"engine", s.runSingle}, {"multi", s.runMulti}} {
			got, want := run.run(true), run.run(false)
			if !slices.Equal(got.log, want.log) {
				t.Errorf("%s dispatch log:\n lane  %v\n heap  %v", run.name, got.log, want.log)
			}
			if !slices.Equal(got.snaps, want.snaps) {
				t.Errorf("%s pending, executed, rounds, now per step:\n lane  %v\n heap  %v", run.name, got.snaps, want.snaps)
			}
			if len(want.log) != len(s.events) {
				t.Errorf("%s dispatched %d events, want %d", run.name, len(want.log), len(s.events))
			}
		}
	})
}
