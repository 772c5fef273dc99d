package metrics

import (
	"fmt"

	"repro/internal/sim"
)

// MultiSampler is the cluster-scale counterpart of Sampler: a barrier-
// driven sampler over a sim.MultiEngine. It never schedules events — a
// sampler tick in any domain calendar would change the barrier round
// structure, which is part of the deterministic output — and instead
// implements sim.BarrierObserver: the coordinator invokes it between
// rounds, when every domain is quiescent, and it records a sample
// whenever the cluster frontier has advanced at least one interval since
// the previous sample (plus a closing sample when the run drains).
//
// Each sample instant records, with the frontier time as the shared
// axis:
//
//   - one Point per resource in the shared StatsRegistry — per-node GAM
//     queues, accelerator links and memories (names prefixed "nodeN."),
//     the cluster ingress/egress cross links and the front-end result
//     cache — exactly as the single-engine Sampler would, each series
//     starting at the resource's first non-zero sample;
//   - one synthetic per-domain series "sim.domainN" (kind "domain"),
//     present from the first sample: the domain's own stream driven off
//     its own clock. Busy is the domain clock, Wait its lag behind the
//     frontier, Occupancy the calendar population, Stalls the inbound
//     mailbox depth at the barrier, Ops the cumulative events executed.
//
// Like the Sampler's, each series stores a point only where its counters
// changed since the last stored one (see Series), so a resource holding
// still between samples costs a comparison, not a stored point.
//
// Because the barrier structure is a pure function of the simulation, the
// recorded samples are byte-identical on every run; and because stored
// points fill preallocated chunks and the registry walk is cached, the
// steady state is allocation-free (TestMultiSamplerZeroAllocSteadyState).
type MultiSampler struct {
	doms []*Series
	seriesSet
}

// NewMultiSampler creates a barrier sampler over me; interval <= 0 means
// DefaultInterval. Install it with me.SetBarrierObserver (AttachMulti
// does both).
func NewMultiSampler(me *sim.MultiEngine, interval sim.Time) *MultiSampler {
	s := &MultiSampler{}
	s.init(interval)
	for i := 0; i < me.Domains(); i++ {
		se := &Series{Name: fmt.Sprintf("sim.domain%d", i), Kind: sim.KindDomain}
		s.doms = append(s.doms, se)
		s.series[se.Name] = se
		s.ordered = append(s.ordered, se)
	}
	return s
}

// OnBarrier implements sim.BarrierObserver: sample when the frontier has
// advanced a full interval past the previous sample, and always on the
// terminating barrier (unless the frontier has not moved since the last
// sample, so repeated Run invocations do not duplicate instants).
func (s *MultiSampler) OnBarrier(m *sim.MultiEngine, mailboxes []int, final bool) {
	now := m.Now()
	if n := s.Samples(); n > 0 {
		last := s.Time(n - 1)
		if final {
			if now == last {
				return
			}
		} else if now < last+s.interval {
			return
		}
	}
	for i, se := range s.doms {
		d := m.Domain(i)
		mb := 0
		if i < len(mailboxes) {
			mb = mailboxes[i]
		}
		se.append(Point{Occupancy: d.Pending(), Ops: d.Executed(), Busy: d.Now(), Wait: now - d.Now(), Stalls: uint64(mb)}, 1)
	}
	s.sample(now, m.Stats())
}

// MultiRecorder bundles one cluster run's observability state: the
// barrier sampler and (when spans are enabled) one GAM span log per
// node. Each log is only ever appended to by its owning node's event
// domain, so recording stays synchronization-free; the Chrome trace
// renders each log in its node's process group.
type MultiRecorder struct {
	Sampler *MultiSampler
	// Spans has one entry per node when Options.Spans was set (nil
	// otherwise). Populated by the model layer that owns the nodes.
	Spans []*SpanLog
}

// AttachMulti creates a MultiRecorder on me and installs its sampler as
// the barrier observer. When o.Spans is set the caller wires the
// per-node logs (e.g. cluster.AttachSpans) into Spans before the run.
func AttachMulti(me *sim.MultiEngine, o Options) *MultiRecorder {
	r := &MultiRecorder{Sampler: NewMultiSampler(me, o.Interval)}
	me.SetBarrierObserver(r.Sampler)
	return r
}
