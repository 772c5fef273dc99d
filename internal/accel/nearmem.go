package accel

import (
	"fmt"

	"repro/internal/fpga"
	"repro/internal/sim"
	"repro/internal/storage"
)

// NearMemAccel is one AIM module (paper §II-B, Fig. 3): an embedded Zynq
// fabric interposed between the memory network and one commodity DIMM,
// with a configuration filter for commands, a memory-access filter, and an
// AIMbus hop to sibling modules. While a kernel runs, the module owns its
// DIMM (closed-row handoff); the fixed HandoffOverhead models the control
// transfer and the precharge on handback.
type NearMemAccel struct {
	p    *Platform
	name string
	fab  *fpga.Fabric
	dimm int // index into p.NearDIMMs
	// HandoffOverhead is charged once per task for DIMM control transfer
	// (handoff command, closed-row precharge on handback, §II-B).
	HandoffOverhead sim.Time
}

// NewNearMem attaches a new AIM module to near-memory DIMM i.
func (p *Platform) NewNearMem(i int) (*NearMemAccel, error) {
	if i < 0 || i >= len(p.NearDIMMs) {
		return nil, fmt.Errorf("accel: no near-memory DIMM %d (have %d)", i, len(p.NearDIMMs))
	}
	name := p.id(NearMemory)
	return &NearMemAccel{
		p:               p,
		name:            name,
		fab:             fpga.NewFabric(p.Eng, name, fpga.ZynqZCU9),
		dimm:            i,
		HandoffOverhead: 1 * sim.Microsecond,
	}, nil
}

// Name reports the instance name.
func (a *NearMemAccel) Name() string { return a.name }

// Level reports NearMemory.
func (a *NearMemAccel) Level() Level { return NearMemory }

// Fabric exposes the device fabric.
func (a *NearMemAccel) Fabric() *fpga.Fabric { return a.fab }

// DIMM reports the attached DIMM index.
func (a *NearMemAccel) DIMM() int { return a.dimm }

// BusyUntil reports when the device can accept the next task.
func (a *NearMemAccel) BusyUntil() sim.Time { return a.fab.BusyUntil() }

// Estimate returns the synthesis-report runtime estimate.
func (a *NearMemAccel) Estimate(t *Task) sim.Time { return estimate(t) }

// Execute runs one task on the AIM module.
func (a *NearMemAccel) Execute(t *Task) (sim.Time, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if !a.fab.Idle() {
		return 0, fmt.Errorf("accel: %s busy until %v", a.name, a.fab.BusyUntil())
	}
	now := a.p.Eng.Now()
	meter := a.p.Meter
	dimm := a.p.NearDIMMs[a.dimm]

	supplyDone := now
	switch t.Source {
	case SourceSPM:
		// Parameters already in the module's scratchpad.
	case SourceLocalDIMM, SourceRemoteDIMM:
		local := t.Bytes
		var remote int64
		if t.Source == SourceRemoteDIMM || t.RemoteFraction > 0 {
			rf := t.RemoteFraction
			if t.Source == SourceRemoteDIMM && rf == 0 {
				rf = 1
			}
			remote = int64(float64(t.Bytes) * rf)
			local = t.Bytes - remote
		}
		if local > 0 {
			if t.Pattern == storage.RandomPages {
				supplyDone = dimm.Random(local)
			} else {
				supplyDone = dimm.Stream(local)
			}
			meter.DRAMTraffic(t.Stage, local)
		}
		if remote > 0 {
			// Remote bytes are read on their home DIMM and hop the
			// shared AIMbus; the home-DIMM read is accounted as DRAM
			// energy, the hop as interconnect energy. Bandwidth-wise the
			// AIMbus is the narrow shared resource.
			busDone := a.p.AIMBus.Transfer(remote)
			if busDone > supplyDone {
				supplyDone = busDone
			}
			meter.DRAMTraffic(t.Stage, remote)
			meter.AIMBusTraffic(t.Stage, remote)
		}
	case SourceHostDRAM:
		// GAM DMAs the data from host DIMMs over the memory network into
		// the module's DIMM; the kernel then reads it back: the attached
		// DIMM carries the traffic twice.
		hostDone := a.p.HostMem.Stream(t.Bytes)
		stageDone := dimm.Stream(2 * t.Bytes)
		supplyDone = max(hostDone, stageDone)
		meter.DRAMTraffic(t.Stage, 3*t.Bytes) // host read + DIMM write + DIMM read
		meter.MCTraffic(t.Stage, t.Bytes)
	case SourceSSD:
		// Rerank-style placement: data lives on SSD and must cross the
		// shared host PCIe interface before the module can consume it —
		// the bottleneck that flattens the Fig. 11 near-memory curve.
		supplyDone = a.readStriped(t.Bytes, t.Pattern)
		if stg := dimm.Stream(2 * t.Bytes); stg > supplyDone {
			supplyDone = stg
		}
		meter.SSDTraffic(t.Stage, t.Bytes)
		meter.PCIeTraffic(t.Stage, t.Bytes)
		meter.MCTraffic(t.Stage, t.Bytes)
		meter.DRAMTraffic(t.Stage, 2*t.Bytes)
	default:
		return 0, fmt.Errorf("accel: %s cannot stream from %v", a.name, t.Source)
	}

	kernelDur := t.Kernel.Duration(t.MACs, t.Bytes)
	done := now + kernelDur + a.HandoffOverhead
	if supplyDone > done {
		done = supplyDone
	}
	a.fab.Occupy(done - now)
	meter.AddActive(t.Stage, t.Kernel.Power(false), done-now)

	if t.OutputBytes > 0 {
		a.p.NearDIMMs[a.dimm].Stream(t.OutputBytes)
		meter.DRAMTraffic(t.Stage, t.OutputBytes)
	}
	return done, nil
}

func (a *NearMemAccel) readStriped(n int64, pattern storage.AccessPattern) sim.Time {
	count := a.p.Storage.Len()
	per := n / int64(count)
	var last sim.Time
	for i := 0; i < count; i++ {
		chunk := per
		if i == count-1 {
			chunk = n - per*int64(count-1)
		}
		if d := a.p.Storage.HostRead(i, chunk, pattern); d > last {
			last = d
		}
	}
	return last
}
