package metrics

import "repro/internal/sim"

// PhaseWindow is one named interval of a run — typically a pipeline
// stage's earliest-dispatch to latest-detection window, plus a "run"
// window covering the whole simulation.
type PhaseWindow struct {
	Name  string
	Start sim.Time
	End   sim.Time
}

// Attribution names, for one phase, the resource under the highest
// normalized pressure and how much of the phase is attributable to it.
type Attribution struct {
	Phase    string
	Window   sim.Time
	Resource string
	Kind     sim.ResourceKind

	// Busy and Wait are the resource's busy-time and queueing-delay deltas
	// inside the phase window.
	Busy sim.Time
	Wait sim.Time
	// Pressure is (Busy + Wait) / window — the normalized contention
	// metric the winner is picked by. Wait counts every queued waiter, so
	// pressure exceeds 1.0 when several operations contend simultaneously.
	Pressure float64
	// Share is min(1, max(Busy, Wait)/window): the fraction of the phase's
	// critical-path time attributable to this resource — busy time for
	// bandwidth resources (connections), park/queue wait for buffering
	// resources (ports, queues, windows) whose Busy is zero by definition.
	Share float64
}

// deltaIn reports the change of a cumulative column inside (a, b]: the
// value at the last sample ≤ b minus the value at the last sample ≤ a.
// Samples are cumulative counters, so this is exact at sample boundaries
// and conservative (quantized to the sampling grid) inside them.
func deltaIn(s Source, se *Series, col *column, a, b sim.Time) int64 {
	return cumAt(s, se, col, b) - cumAt(s, se, col, a)
}

// cumAt reports a cumulative column's value at the last sample instant
// ≤ t, or zero when the series has no sample that early.
func cumAt(s Source, se *Series, col *column, t sim.Time) int64 {
	// Binary search over the global time axis restricted to the series'
	// live range [se.start, se.start+len).
	lo, hi := 0, se.Len() // candidate point counts
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Time(se.start+mid) <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return col.at(lo - 1)
}

// Attribute reduces a sampled run to one Attribution per phase: the
// resource with the highest normalized pressure inside each window. A
// phase in which no resource saw pressure yields Resource == "" with zero
// Pressure. Ties break by resource name, so the result is deterministic.
func Attribute(s Source, phases []PhaseWindow) []Attribution {
	series := s.Series() // sorted by name
	out := make([]Attribution, 0, len(phases))
	for _, ph := range phases {
		att := Attribution{Phase: ph.Name, Window: ph.End - ph.Start}
		if att.Window <= 0 {
			out = append(out, att)
			continue
		}
		w := att.Window.Seconds()
		for _, se := range series {
			busy := sim.Time(deltaIn(s, se, &se.busy, ph.Start, ph.End))
			wait := sim.Time(deltaIn(s, se, &se.wait, ph.Start, ph.End))
			if busy <= 0 && wait <= 0 {
				continue
			}
			pressure := (busy.Seconds() + wait.Seconds()) / w
			if pressure > att.Pressure {
				att.Resource = se.Name
				att.Kind = se.Kind
				att.Busy = busy
				att.Wait = wait
				att.Pressure = pressure
				dominant := busy
				if wait > dominant {
					dominant = wait
				}
				att.Share = dominant.Seconds() / w
				if att.Share > 1 {
					att.Share = 1
				}
			}
		}
		out = append(out, att)
	}
	return out
}
