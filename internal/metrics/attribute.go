package metrics

import (
	"sort"

	"repro/internal/sim"
)

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
	// bandwidth resources (connections), queue wait for buffering
	// resources (ports, queues, windows) whose Busy is zero by definition.
	Share float64
}

// cumAt reports the series' point at the last sample instant ≤ t, or
// the zero point when the series has no sample that early. The counters
// are cumulative, so the difference of two such points is exact at
// sample boundaries and conservative (quantized to the sampling grid)
// inside them. Runs tile the series' samples in time order, so the last
// run beginning at or before t holds that sample: a binary search over
// the runs' first instants finds it.
func cumAt(s Source, se *Series, t sim.Time) Point {
	k := sort.Search(se.runs.len(), func(k int) bool { return s.Time(se.start+se.runs.at(k).from) > t })
	if k == 0 {
		return Point{}
	}
	return se.runs.at(k - 1).p
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
			a, b := cumAt(s, se, ph.Start), cumAt(s, se, ph.End)
			busy, wait := b.Busy-a.Busy, b.Wait-a.Wait
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
