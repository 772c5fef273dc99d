package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// This file partitions the event engine of one large simulation into
// event domains. A Domain is an independent event engine — its own
// 4-ary calendar heap, slot pool and virtual clock — and a MultiEngine
// coordinates N domains with conservative (YAWNS-style, null-message-free)
// barrier synchronization: each round, every domain safely executes all
// events strictly before min(next event over all domains) + lookahead,
// where the lookahead is the minimum latency of any CrossLink declared at
// wiring time. Any event one domain can cause in another is at least one
// cross-link latency in the future, so events inside the window cannot be
// invalidated by a message still in flight.
//
// Determinism is the design's spine, not a hope:
//
//   - The domain decomposition is fixed by the model topology. The
//     coordinator executes each round's active domains one after another
//     in index order on the caller's goroutine; no goroutine is started.
//   - Within a round, domains are mutually independent by construction
//     (cross-domain effects ride mailboxes that are only drained at the
//     barrier), so execution order across domains cannot matter.
//   - Mailboxes are drained single-threaded between rounds in a total
//     stable order — (delivery time, source domain id, source export
//     seq) — so same-timestamp events from two different domains merge
//     into the destination calendar identically every run.
//
// Everything runs on the coordinator goroutine, so nothing takes a lock:
// scheduling and dispatch inside a domain stay allocation-free exactly as
// in the single-engine case, a cross-domain export appends to a plain
// slice, and a warmed barrier drain allocates nothing. A round costs in
// proportion to the domains with work: the coordinator keeps every
// domain's earliest event time in one flat slice and lists the domains
// that received mail, so it never walks an idle domain's calendar or
// mailbox.

// Domain is one event-domain of a partitioned simulation. A Domain is an
// Engine — the single-domain Engine API (AtCall, ScheduleCall, resources)
// is exactly the per-domain API, so model code written against
// *Engine runs unchanged inside a domain. Standalone engines made with
// NewEngine are simply single domains that were never attached to a
// MultiEngine.
type Domain = Engine

// xevent is one cross-domain event waiting in a destination mailbox.
// src/xseq make the barrier merge order total and independent of the
// order in which domains ran.
type xevent struct {
	at   Time
	src  int32
	xseq uint64
	h    Handler
	arg  uint64
}

// MultiEngine coordinates N event domains executing one simulation. Wire
// the model as usual against each Domain's Engine API, connect domains
// with CrossLinks (whose minimum latency becomes the synchronization
// lookahead), then call Run. The coordinator runs every domain on the
// caller's goroutine.
type MultiEngine struct {
	domains   []*Engine
	stats     *StatsRegistry
	lookahead Time // min CrossLink latency; MaxTime until a link is wired
	rounds    uint64
	running   bool

	// next[i] is domain i's earliest calendar time (MaxTime when empty).
	// Only a domain's own round and the drain change a calendar during
	// Run, and both keep next current, so a round's minimum is one scan.
	next []Time
	// mail lists, in first-export order, the domains whose mailbox filled
	// since the last drain; drained lists the ones that drain emptied, so
	// the next drain can zero their depths.
	mail, drained []int32

	// merge and depths are the barrier's scratch, reused across rounds
	// and runs.
	merge  []mergeEntry
	depths []int

	// barriers are invoked by the coordinator, in order, after every
	// round and once more when the run drains.
	barriers []BarrierObserver
}

// BarrierObserver receives a coordinator callback at every barrier of a
// MultiEngine run, after the round's cross-domain mailboxes were drained.
// The callback runs on the coordinator goroutine while every domain is
// quiescent, so the observer may read domain clocks, calendars and the
// shared StatsRegistry without synchronization — this is the sampling
// hook time-resolved cluster observability and the live inspector hang
// off. mailboxes[i] is domain i's inbound mailbox depth observed at the
// barrier (before the drain emptied it). final is true for the
// terminating callback of a Run invocation, when every calendar and
// mailbox is empty.
//
// Observers must not schedule events: the round structure (and therefore
// Rounds()) is part of the deterministic output, and an observer-injected
// event would perturb it. Observation is read-only by contract.
type BarrierObserver interface {
	OnBarrier(m *MultiEngine, mailboxes []int, final bool)
}

// SetBarrierObserver installs the coordinator's barrier callbacks,
// replacing any installed before; every barrier notifies them in argument
// order, and a call with no arguments removes them. Call before Run.
func (m *MultiEngine) SetBarrierObserver(obs ...BarrierObserver) {
	if m.running {
		panic("sim: SetBarrierObserver during Run")
	}
	m.barriers = append([]BarrierObserver(nil), obs...)
}

// mergeEntry pairs a drained cross event with its destination.
type mergeEntry struct {
	dst *Engine
	ev  xevent
}

// NewMultiEngine returns a coordinator over n fresh domains (ids 0..n-1)
// sharing one StatsRegistry, so resources wired anywhere in the partition
// keep globally unique hierarchical names and one registry walk still
// covers the whole simulation.
func NewMultiEngine(n int) *MultiEngine {
	if n < 1 {
		panic(fmt.Sprintf("sim: MultiEngine needs at least one domain, got %d", n))
	}
	m := &MultiEngine{
		stats:     NewStatsRegistry(),
		lookahead: MaxTime,
	}
	for i := 0; i < n; i++ {
		d := NewEngine()
		d.stats = m.stats
		d.id = int32(i)
		d.multi = m
		m.domains = append(m.domains, d)
	}
	m.depths = make([]int, n)
	m.next = make([]Time, n)
	return m
}

// Domains reports the partition width.
func (m *MultiEngine) Domains() int { return len(m.domains) }

// Domain returns domain i's engine.
func (m *MultiEngine) Domain(i int) *Engine { return m.domains[i] }

// Stats returns the registry shared by every domain.
func (m *MultiEngine) Stats() *StatsRegistry { return m.stats }

// Lookahead reports the conservative synchronization window: the minimum
// CrossLink latency wired so far (MaxTime when domains are unconnected —
// each then runs to completion in a single round).
func (m *MultiEngine) Lookahead() Time { return m.lookahead }

// Rounds reports how many barrier rounds have executed.
func (m *MultiEngine) Rounds() uint64 { return m.rounds }

// Now reports the simulation's frontier: the maximum domain clock.
func (m *MultiEngine) Now() Time {
	var max Time
	for _, d := range m.domains {
		if d.now > max {
			max = d.now
		}
	}
	return max
}

// Executed sums dispatched events over all domains.
func (m *MultiEngine) Executed() uint64 {
	var n uint64
	for _, d := range m.domains {
		n += d.executed
	}
	return n
}

// Pending sums calendar populations, arrival lanes included, over all
// domains (mailboxes excluded).
func (m *MultiEngine) Pending() int {
	var n int
	for _, d := range m.domains {
		n += d.Pending()
	}
	return n
}

// observeLatency folds a newly wired cross-domain latency into the
// lookahead. Latencies must be positive: a zero-latency cross link would
// collapse the safe window to nothing and the barrier could never admit
// an event.
func (m *MultiEngine) observeLatency(l Time) {
	if l <= 0 {
		panic(fmt.Sprintf("sim: cross-domain latency %v must be positive (it bounds the conservative lookahead)", l))
	}
	if l < m.lookahead {
		m.lookahead = l
	}
}

// drain moves every filled mailbox's events into the destination
// calendars in the total (at, src, xseq) order, lowering each
// destination's next time, and records the observed mailbox depths.
// Coordinator-only, between rounds. The key is unique (xseq counts each
// source's exports), so an unstable sort gives the one order every run,
// and the warmed drain allocates nothing.
func (m *MultiEngine) drain() {
	for _, i := range m.drained {
		m.depths[i] = 0
	}
	m.drained, m.mail = m.mail, m.drained[:0]
	m.merge = m.merge[:0]
	for _, i := range m.drained {
		d := m.domains[i]
		m.depths[i] = len(d.inbox)
		for _, ev := range d.inbox {
			m.merge = append(m.merge, mergeEntry{dst: d, ev: ev})
		}
		d.inbox = d.inbox[:0]
	}
	slices.SortFunc(m.merge, func(a, b mergeEntry) int {
		if c := cmp.Compare(a.ev.at, b.ev.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ev.src, b.ev.src); c != 0 {
			return c
		}
		return cmp.Compare(a.ev.xseq, b.ev.xseq)
	})
	for _, e := range m.merge {
		if e.ev.at < e.dst.now {
			panic(fmt.Sprintf("sim: cross-domain event at %v delivered into domain %d already at %v (lookahead violated)",
				e.ev.at, e.dst.id, e.dst.now))
		}
		e.dst.push(e.ev.at, e.ev.h, e.ev.arg)
		if e.ev.at < m.next[e.dst.id] {
			m.next[e.dst.id] = e.ev.at
		}
	}
}

// Run executes the partitioned simulation to completion: barrier rounds of
// drain → safe-window execution until every calendar and mailbox is empty.
// Panics on re-entrant invocation. Domains run on the caller's goroutine,
// so a model panic inside any domain propagates to the caller unchanged.
func (m *MultiEngine) Run() {
	if m.running {
		panic("sim: re-entrant MultiEngine.Run")
	}
	m.running = true
	defer func() { m.running = false }()

	// Model code may schedule into any calendar between runs.
	for i, d := range m.domains {
		m.next[i] = d.head()
	}
	for {
		m.drain()
		tmin := MaxTime
		for _, t := range m.next {
			tmin = min(tmin, t)
		}
		if tmin == MaxTime {
			for _, o := range m.barriers {
				o.OnBarrier(m, m.depths, true)
			}
			return
		}
		bound := tmin + m.lookahead
		if bound < tmin { // overflow (unconnected partitions run unbounded)
			bound = MaxTime
		}
		m.runRound(bound)
		m.rounds++
		for _, o := range m.barriers {
			o.OnBarrier(m, m.depths, false)
		}
	}
}

// runRound executes, in index order, the safe window of every domain with
// an event inside it.
func (m *MultiEngine) runRound(bound Time) {
	for i, t := range m.next {
		if t < bound {
			d := m.domains[i]
			d.runBound(bound)
			m.next[i] = d.head()
		}
	}
}

// ExportAt schedules h.Fire(dst, arg) at absolute time t in another
// domain of the same MultiEngine, through dst's mailbox. The event is
// committed at the next barrier. t must respect the conservative lookahead — at least one
// lookahead past the exporting domain's clock — or the destination could
// already have advanced past it. CrossLink.Send is the usual way to get
// the timing right; ExportAt is the low-level primitive for latency-only
// control messages. Both run inside a domain's event, on the coordinator
// goroutine, which is why the mailbox append takes no lock.
func (e *Engine) ExportAt(dst *Engine, t Time, h Handler, arg uint64) {
	if e.multi == nil || dst == nil || dst.multi != e.multi {
		panic("sim: ExportAt needs source and destination domains of one MultiEngine")
	}
	if dst == e {
		panic("sim: ExportAt to the exporting domain; use AtCall")
	}
	if h == nil {
		panic("sim: exporting nil handler")
	}
	if t < e.now+e.multi.lookahead {
		panic(fmt.Sprintf("sim: ExportAt %v within lookahead %v of domain %d's clock %v",
			t, e.multi.lookahead, e.id, e.now))
	}
	e.xseq++
	if len(dst.inbox) == 0 {
		e.multi.mail = append(e.multi.mail, dst.id)
	}
	dst.inbox = append(dst.inbox, xevent{at: t, src: e.id, xseq: e.xseq, h: h, arg: arg})
}

// CrossLink is a Link whose deliveries land in other event domains: the
// egress capacity (bandwidth, FIFO queueing, stats) lives in — and is only
// ever touched by — the source domain, while each completed transfer
// schedules its arrival event into the destination domain's mailbox, to be
// committed at the next barrier. Its fixed latency is declared at wiring
// time and folds into the MultiEngine's conservative lookahead, which is
// what makes the barrier window safe.
type CrossLink struct {
	l   *Link
	src *Engine
}

// NewCrossLink creates a cross-domain link owned by src, registered under
// name in the shared registry. latency must be positive; it becomes (part
// of) the MultiEngine's lookahead.
func NewCrossLink(src *Engine, name string, bytesPerSec float64, latency Time) *CrossLink {
	if src == nil || src.multi == nil {
		panic("sim: NewCrossLink needs a domain attached to a MultiEngine")
	}
	src.multi.observeLatency(latency)
	return &CrossLink{l: NewLink(src, name, bytesPerSec, latency), src: src}
}

// Link exposes the underlying egress resource (stats, name, latency).
func (x *CrossLink) Link() *Link { return x.l }

// Send reserves the egress capacity for n payload bytes (FIFO behind
// in-flight transfers, exactly like Link.Transfer) and schedules
// h.Fire(dst, arg) in the destination domain when the last byte lands —
// egress occupancy plus the link latency. Zero-byte sends model
// control-plane messages: pure latency, no capacity occupancy, no stats.
// Returns the arrival time.
func (x *CrossLink) Send(dst *Engine, n int64, h Handler, arg uint64) Time {
	at := x.l.reserve(x.src.now, x.l.duration(n), n) + x.l.latency
	x.src.ExportAt(dst, at, h, arg)
	return at
}
