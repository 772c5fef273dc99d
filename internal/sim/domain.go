package sim

import (
	"fmt"
	"sort"
	"sync"
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
// Intra-domain hot paths are untouched: scheduling and dispatch inside a
// domain stay lock-free and allocation-free exactly as in the
// single-engine case. Only a cross-domain export takes a lock (the
// destination's mailbox mutex), and only the coordinator touches the
// mailboxes between rounds.

// Domain is one event-domain of a partitioned simulation. A Domain is an
// Engine — the single-domain Engine API (AtCall, ScheduleCall, handles,
// resources) is exactly the per-domain API, so model code written against
// *Engine runs unchanged inside a domain. Standalone engines made with
// NewEngine are simply single domains that were never attached to a
// MultiEngine.
type Domain = Engine

// xevent is one cross-domain event waiting in a destination mailbox.
// src/xseq make the barrier merge order total and independent of the
// order in which domains ran.
type xevent struct {
	at        Time
	src       int32
	xseq      uint64
	h         Handler
	fn        func()
	arg       uint64
	cancelled bool
}

// inbox is a domain's bounded inbound mailbox. Senders append under the
// mutex during a round; the coordinator drains it at the barrier. The
// backing array is retained between rounds, so a warmed mailbox appends
// without allocating; its effective bound is the cross-domain traffic of
// one lookahead window.
type inbox struct {
	mu      sync.Mutex
	epoch   uint64 // incremented at every drain; stale XHandles see it
	pending []xevent
}

// XHandle identifies an event exported to another domain's mailbox, for
// cancellation from the exporting domain. An exported event can only be
// cancelled until the next barrier: once the coordinator drains the
// mailbox the event is committed to the destination calendar and Cancel
// becomes a no-op (the destination domain may already have executed it).
// The zero value is inert.
type XHandle struct {
	dst   *Engine
	epoch uint64
	idx   int
}

// Cancel prevents the exported event from firing if it is still in the
// destination mailbox; after the barrier that drained it, Cancel is a
// no-op. Safe to call from the exporting domain's goroutine.
func (h XHandle) Cancel() {
	d := h.dst
	if d == nil {
		return
	}
	d.inbox.mu.Lock()
	if h.epoch == d.inbox.epoch && h.idx < len(d.inbox.pending) {
		d.inbox.pending[h.idx].cancelled = true
	}
	d.inbox.mu.Unlock()
}

// Exported reports whether the event is still in the destination mailbox
// (not yet drained, not cancelled).
func (h XHandle) Exported() bool {
	d := h.dst
	if d == nil {
		return false
	}
	d.inbox.mu.Lock()
	defer d.inbox.mu.Unlock()
	return h.epoch == d.inbox.epoch && h.idx < len(d.inbox.pending) &&
		!d.inbox.pending[h.idx].cancelled
}

// DomainProgress is one domain's live position, published at barriers.
type DomainProgress struct {
	// Clock is the domain's virtual time (its last executed event).
	Clock Time
	// Pending is the domain calendar's population at the barrier.
	Pending int
	// Mailbox is the inbound mailbox depth just before the drain.
	Mailbox int
	// Executed counts events the domain has dispatched so far.
	Executed uint64
}

// MultiProgress is a consistent snapshot of a running MultiEngine, taken
// at the most recent barrier. Safe to read concurrently with the run —
// this is what the live inspector serves.
type MultiProgress struct {
	Rounds    uint64
	Lookahead Time
	Domains   []DomainProgress
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

	// merge is the barrier's scratch, reused across rounds.
	merge []mergeEntry

	// progress is rewritten in place at each barrier under progressMu.
	progressMu sync.Mutex
	progress   MultiProgress

	// barriers are invoked by the coordinator, in order, after every
	// round's progress publication and once more when the run drains.
	barriers []BarrierObserver
}

// BarrierObserver receives a coordinator callback at every barrier of a
// MultiEngine run, after the round's cross-domain mailboxes were drained
// and the progress snapshot was published. The callback runs on the
// coordinator goroutine while every domain is quiescent, so the observer
// may read domain clocks, calendars and the shared StatsRegistry without
// synchronization — this is the sampling hook time-resolved cluster
// observability hangs off. mailboxes[i] is domain i's inbound mailbox
// depth observed at the barrier (before the drain emptied it). final is
// true for the terminating callback of a Run invocation, when every
// calendar and mailbox is empty.
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
	m.progress.Domains = make([]DomainProgress, n)
	m.progress.Lookahead = MaxTime
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

// Pending sums calendar populations over all domains (mailboxes excluded).
func (m *MultiEngine) Pending() int {
	var n int
	for _, d := range m.domains {
		n += len(d.heap)
	}
	return n
}

// Progress returns the barrier-consistent snapshot the coordinator
// published most recently. Safe to call from any goroutine while Run
// executes — this is the inspector's read path.
func (m *MultiEngine) Progress() MultiProgress {
	m.progressMu.Lock()
	defer m.progressMu.Unlock()
	out := m.progress
	out.Domains = append([]DomainProgress(nil), m.progress.Domains...)
	return out
}

// publishProgress rewrites the published snapshot. mailboxes[i] is the
// depth observed at the barrier, before the drain emptied it.
func (m *MultiEngine) publishProgress(mailboxes []int) {
	m.progressMu.Lock()
	m.progress.Rounds = m.rounds
	m.progress.Lookahead = m.lookahead
	for i, d := range m.domains {
		m.progress.Domains[i] = DomainProgress{
			Clock:    d.now,
			Pending:  len(d.heap),
			Mailbox:  mailboxes[i],
			Executed: d.executed,
		}
	}
	m.progressMu.Unlock()
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

// drain moves every mailbox's pending events into the destination
// calendars in the total (at, src, xseq) order, returning the observed
// per-domain mailbox depths. Coordinator-only, between rounds.
func (m *MultiEngine) drain(depths []int) {
	m.merge = m.merge[:0]
	for i, d := range m.domains {
		d.inbox.mu.Lock()
		depths[i] = len(d.inbox.pending)
		for _, ev := range d.inbox.pending {
			if !ev.cancelled {
				m.merge = append(m.merge, mergeEntry{dst: d, ev: ev})
			}
		}
		d.inbox.pending = d.inbox.pending[:0]
		d.inbox.epoch++
		d.inbox.mu.Unlock()
	}
	sort.Slice(m.merge, func(i, j int) bool {
		a, b := m.merge[i].ev, m.merge[j].ev
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.xseq < b.xseq
	})
	for _, e := range m.merge {
		if e.ev.at < e.dst.now {
			panic(fmt.Sprintf("sim: cross-domain event at %v delivered into domain %d already at %v (lookahead violated)",
				e.ev.at, e.dst.id, e.dst.now))
		}
		e.dst.push(e.ev.at, e.ev.h, e.ev.arg, e.ev.fn)
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

	depths := make([]int, len(m.domains))
	for {
		m.drain(depths)
		tmin := MaxTime
		for _, d := range m.domains {
			if len(d.heap) > 0 && d.heap[0].at < tmin {
				tmin = d.heap[0].at
			}
		}
		if tmin == MaxTime {
			m.publishProgress(depths)
			for _, o := range m.barriers {
				o.OnBarrier(m, depths, true)
			}
			return
		}
		bound := tmin + m.lookahead
		if bound < tmin { // overflow (unconnected partitions run unbounded)
			bound = MaxTime
		}
		m.runRound(bound)
		m.rounds++
		m.publishProgress(depths)
		for _, o := range m.barriers {
			o.OnBarrier(m, depths, false)
		}
	}
}

// runRound executes every domain's safe window in index order. Domains
// without an event inside the window are skipped.
func (m *MultiEngine) runRound(bound Time) {
	for _, d := range m.domains {
		if len(d.heap) > 0 && d.heap[0].at < bound {
			d.runBound(bound)
		}
	}
}

// ExportAt schedules h.Fire(dst, arg) at absolute time t in another
// domain of the same MultiEngine, through dst's mailbox. The event is
// committed at the next barrier; until then the returned XHandle can
// cancel it. t must respect the conservative lookahead — at least one
// lookahead past the exporting domain's clock — or the destination could
// already have advanced past it. CrossLink.Send is the usual way to get
// the timing right; ExportAt is the low-level primitive for latency-only
// control messages.
func (e *Engine) ExportAt(dst *Engine, t Time, h Handler, arg uint64) XHandle {
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
	dst.inbox.mu.Lock()
	idx := len(dst.inbox.pending)
	epoch := dst.inbox.epoch
	dst.inbox.pending = append(dst.inbox.pending, xevent{
		at: t, src: e.id, xseq: e.xseq, h: h, arg: arg,
	})
	dst.inbox.mu.Unlock()
	return XHandle{dst: dst, epoch: epoch, idx: idx}
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
// Returns the arrival time and a handle valid until the next barrier.
func (x *CrossLink) Send(dst *Engine, n int64, h Handler, arg uint64) (Time, XHandle) {
	end := x.l.reserve(x.src.now, x.l.duration(n), n)
	at := end + x.l.latency
	return at, x.src.ExportAt(dst, at, h, arg)
}
