package trace

import (
	"repro/internal/sim"
)

// AddResources records the end-of-run state of every active shared
// resource in the central registry as counter events on a per-resource
// lane: payload bytes, accumulated wait and stall counts become counter
// tracks in the viewer, so bottleneck resources stand out next to the
// task lanes. Idle resources are skipped.
func (t *Timeline) AddResources(reg *sim.StatsRegistry, now sim.Time) {
	reg.Walk(func(name string, res sim.Resource) {
		st := res.ResourceStats()
		if st.Ops == 0 && st.Stalls == 0 {
			return
		}
		t.begin(name, eventHead{
			cat: "resource." + string(st.Kind), ph: "C",
			ts: us(now), pid: 1, tid: t.lane("resources"),
		})
		if st.Bytes > 0 {
			t.argUint("bytes", st.Bytes)
		}
		if st.MaxOccupancy > 0 {
			t.argInt("max_occ", int64(st.MaxOccupancy))
		}
		t.argUint("ops", st.Ops).argUint("stalls", st.Stalls)
		if st.Wait > 0 {
			t.argFloat("wait_us", us(st.Wait))
		}
		t.add()
	})
}
