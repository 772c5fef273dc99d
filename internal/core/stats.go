package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/accel"
	"repro/internal/sim"
)

// StatEntry is one named counter in a system snapshot.
type StatEntry struct {
	Name  string
	Value string
}

// Snapshot harvests the observable state of every simulated component —
// the gem5-style statistics dump of a run: link traffic and utilisation,
// queueing delays, storage traffic split by interface,
// fabric busy time, and the GAM's control-plane counters.
func (s *System) Snapshot() []StatEntry {
	var out []StatEntry
	add := func(name, format string, args ...any) {
		out = append(out, StatEntry{Name: name, Value: fmt.Sprintf(format, args...)})
	}
	p := s.plat

	add("sim.now", "%v", s.eng.Now())
	add("sim.events", "%d", s.eng.Executed())

	// GAM.
	g := s.gam.Stats()
	add("gam.jobs_submitted", "%d", g.JobsSubmitted)
	add("gam.jobs_completed", "%d", g.JobsCompleted)
	add("gam.tasks_dispatched", "%d", g.TasksDispatched)
	add("gam.command_packets", "%d", g.CommandPackets)
	add("gam.status_polls", "%d", g.StatusPolls)
	add("gam.transfers", "%d", g.Transfers)
	add("gam.interrupts", "%d", g.Interrupts)

	// Shared resources: every connection, stream buffer, request queue and
	// outstanding-ops window registered on the engine, walked in sorted
	// name order. The central registry is the single source of truth for
	// contention statistics — component packages no longer export bespoke
	// counters into the snapshot. On a shared-engine node only this node's
	// (prefix-scoped) resources are reported; sibling nodes and
	// cluster-level links belong to their own snapshots.
	s.eng.Stats().Walk(func(name string, res sim.Resource) {
		if s.prefix != "" && !strings.HasPrefix(name, s.prefix) {
			return
		}
		st := res.ResourceStats()
		switch st.Kind {
		case sim.KindConnection:
			add(name+".bytes", "%d", st.Bytes)
			if st.Ops > 0 {
				add(name+".busy", "%v", st.Busy)
				add(name+".queued_delay", "%v", st.Wait)
				add(name+".util", "%.3f", st.Utilization)
			}
		case sim.KindPort:
			if st.Ops == 0 {
				return
			}
			add(name+".items", "%d", st.Ops)
			add(name+".wait", "%v", st.Wait)
			add(name+".stalls", "%d", st.Stalls)
			add(name+".max_occ", "%d", st.MaxOccupancy)
		case sim.KindQueue:
			if st.Ops == 0 && st.Stalls == 0 {
				return
			}
			add(name+".served", "%d", st.Ops)
			add(name+".wait", "%v", st.Wait)
			add(name+".stalls", "%d", st.Stalls)
			add(name+".max_occ", "%d", st.MaxOccupancy)
		case sim.KindWindow:
			if st.Ops == 0 {
				return
			}
			add(name+".admitted", "%d", st.Ops)
			add(name+".wait", "%v", st.Wait)
			add(name+".stalls", "%d", st.Stalls)
			add(name+".max_occ", "%d", st.MaxOccupancy)
		}
	})

	// Storage device counters (per-interface traffic split; the host PCIe
	// link itself is covered by the registry walk above as
	// "ssd.host_link").
	for i := 0; i < p.Storage.Len(); i++ {
		st := p.Storage.SSD(i).Stats()
		if st.BytesRead == 0 {
			continue
		}
		add(fmt.Sprintf("ssd%d.bytes_read", i), "%d", st.BytesRead)
		add(fmt.Sprintf("ssd%d.bytes_device", i), "%d", st.BytesDevice)
		add(fmt.Sprintf("ssd%d.bytes_host", i), "%d", st.BytesHost)
		add(fmt.Sprintf("ssd%d.pages_read", i), "%d", st.PagesRead)
	}

	// Accelerator fabrics.
	for _, level := range []accel.Level{accel.OnChip, accel.NearMemory, accel.NearStorage} {
		for _, a := range s.Accelerators(level) {
			f := a.Fabric()
			if f.Tasks() == 0 {
				continue
			}
			add(fmt.Sprintf("acc.%s.tasks", a.Name()), "%d", f.Tasks())
			add(fmt.Sprintf("acc.%s.busy", a.Name()), "%v", f.Busy())
			if now := s.eng.Now(); now > 0 {
				add(fmt.Sprintf("acc.%s.util", a.Name()), "%.3f",
					float64(f.Busy())/float64(now))
			}
			add(fmt.Sprintf("acc.%s.reconfigs", a.Name()), "%d", f.Reconfigs())
		}
	}

	// Energy.
	add("energy.total_J", "%.3f", s.meter.Total())
	add("energy.movement_share", "%.3f", s.meter.MovementShare())
	return out
}

// WriteSnapshot renders the snapshot as sorted name/value lines.
func (s *System) WriteSnapshot(w io.Writer) error {
	entries := s.Snapshot()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	width := 0
	for _, e := range entries {
		if len(e.Name) > width {
			width = len(e.Name)
		}
	}
	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "%-*s  %s\n", width, e.Name, e.Value); err != nil {
			return err
		}
	}
	return nil
}

// Utilization reports an accelerator level's mean fabric utilisation over
// the run so far.
func (s *System) Utilization(l accel.Level) float64 {
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	accs := s.Accelerators(l)
	if len(accs) == 0 {
		return 0
	}
	var busy sim.Time
	for _, a := range accs {
		busy += a.Fabric().Busy()
	}
	return float64(busy) / float64(now) / float64(len(accs))
}
