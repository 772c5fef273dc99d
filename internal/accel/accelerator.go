package accel

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/fpga"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Accelerator is one accelerator instance at a ReACH compute level: an FPGA
// fabric behind the level's data path. The level decides where a task's
// streamed input comes from, the fixed per-task overhead and where its
// output is written; everything else is the same at every level.
//
//   - On chip (paper §II-A, Fig. 2): a large Virtex-class fabric on the NoC
//     with a 100 GB/s port to the shared cache, virtual-memory support
//     (TLB + page-table walkers), and host DRAM behind the shared memory
//     controllers. Output goes over the NoC to the LLC.
//   - Near memory (§II-B, Fig. 3): an AIM module, an embedded Zynq fabric
//     interposed between the memory network and one commodity DIMM, with a
//     configuration filter for commands, a memory-access filter, and an
//     AIMbus hop to sibling modules. While a kernel runs, the module owns
//     its DIMM (closed-row handoff); handoffOverhead models the control
//     transfer and the precharge on handback. Output goes to the DIMM.
//   - Near storage (§II-C, Fig. 4): an embedded Zynq fabric attached to a
//     single NVMe SSD via a local PCIe link, with a private 1 GB DRAM buffer
//     that caches kernel parameters to limit flash accesses and exploit
//     parameter reuse. Output goes to the buffer.
type Accelerator struct {
	p     *Platform
	name  string
	level Level
	fab   *fpga.Fabric
	// port is an on-chip instance's NoC port.
	port *noc.Port
	// idx is the attached DIMM (near memory) or SSD (near storage), and
	// local that DIMM's port or the SSD's device buffer.
	idx   int
	local *mem.Port

	// BufferHitRatio is the fraction of a near-storage instance's
	// SourceDeviceDRAM traffic served by the private buffer (the remainder
	// falls through to flash). Parameter working sets that fit the 1 GB
	// buffer hit ~always.
	BufferHitRatio float64
}

// handoffOverhead is charged once per near-memory task for DIMM control
// transfer (handoff command, closed-row precharge on handback, §II-B).
const handoffOverhead = 1 * sim.Microsecond

// instancePrefix names each level's instances: onchip0, nm0, ns0, ...
var instancePrefix = [CPU]string{"onchip", "nm", "ns"}

// NewAccelerator attaches a new instance at level l. i selects the DIMM a
// near-memory module interposes on or the SSD a near-storage accelerator
// is attached to; an on-chip instance has neither and ignores it.
func (p *Platform) NewAccelerator(l Level, i int) (*Accelerator, error) {
	a := &Accelerator{p: p, level: l, idx: i, BufferHitRatio: 1.0}
	device := fpga.ZynqZCU9
	switch l {
	case OnChip:
		device = fpga.VirtexVU9P
	case NearMemory:
		if i < 0 || i >= len(p.NearDIMMs) {
			return nil, fmt.Errorf("accel: no near-memory DIMM %d (have %d)", i, len(p.NearDIMMs))
		}
		a.local = p.NearDIMMs[i]
	case NearStorage:
		if i < 0 || i >= p.Storage.Len() {
			return nil, fmt.Errorf("accel: no SSD %d (have %d)", i, p.Storage.Len())
		}
		a.local = p.DevBuffers[i]
	default:
		return nil, fmt.Errorf("accel: no accelerator at level %v", l)
	}
	a.name = fmt.Sprintf("%s%d", instancePrefix[l], p.nextID[l])
	p.nextID[l]++
	a.fab = fpga.NewFabric(p.Eng, a.name, device)
	if l == OnChip {
		a.port = p.NoC.MustAddPort(a.name, p.Cfg.OnChip.NoCGBps*config.GBps)
	}
	return a, nil
}

// Name reports the instance name.
func (a *Accelerator) Name() string { return a.name }

// Fabric exposes the device fabric.
func (a *Accelerator) Fabric() *fpga.Fabric { return a.fab }

// BusyUntil reports when the device can accept the next task.
func (a *Accelerator) BusyUntil() sim.Time { return a.fab.BusyUntil() }

// Estimate returns the synthesis-report runtime estimate GAM stores in its
// progress table: kernel time only. It deliberately ignores data-path
// contention, which is why GAM's status polling exists.
func (a *Accelerator) Estimate(t *Task) sim.Time {
	return t.Kernel.Duration(t.MACs, t.Bytes)
}

// Execute starts the task now, reserves the data-path resources, charges
// energy and returns the completion time. The streamed input is supplied
// over the path its Source implies; the kernel pipeline overlaps with the
// stream, so task latency is max(supply, compute + overhead).
func (a *Accelerator) Execute(t *Task) (sim.Time, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if !a.fab.Idle() {
		return 0, fmt.Errorf("accel: %s busy until %v", a.name, a.fab.BusyUntil())
	}
	now := a.p.Eng.Now()
	var supplyDone sim.Time
	var ok bool
	switch a.level {
	case OnChip:
		supplyDone, ok = a.onChipSupply(t, now)
	case NearMemory:
		supplyDone, ok = a.nearMemSupply(t, now)
	default:
		supplyDone, ok = a.nearStorSupply(t, now)
	}
	if !ok {
		return 0, fmt.Errorf("accel: %s cannot stream from %v", a.name, t.Source)
	}

	done := max(supplyDone, now+t.Kernel.Duration(t.MACs, t.Bytes)+a.overhead(t))
	a.fab.Occupy(done - now)
	a.p.Meter.AddActive(t.Stage, t.Kernel.Power(a.level == NearStorage), done-now)

	if t.OutputBytes > 0 {
		if a.level == OnChip {
			a.p.NoC.Transfer(a.port, a.p.llc, t.OutputBytes)
			a.p.Meter.CacheTraffic(t.Stage, t.OutputBytes)
		} else {
			a.local.Stream(t.OutputBytes)
			a.p.Meter.DRAMTraffic(t.Stage, t.OutputBytes)
		}
	}
	return done, nil
}

// overhead is the per-task time the level adds to the kernel's: address
// translation on chip, the DIMM handoff near memory, none near storage.
func (a *Accelerator) overhead(t *Task) sim.Time {
	switch a.level {
	case OnChip:
		if cfg := &a.p.Cfg; cfg.OnChip.TLBMissRate > 0 && t.Bytes > 0 {
			// Address-translation overhead: misses per page-ish granule.
			accesses := float64(t.Bytes) / float64(cfg.CPU.L2LineBytes)
			missNS := accesses * cfg.OnChip.TLBMissRate * cfg.OnChip.TLBMissLatencyNS
			return sim.FromSeconds(missNS * 1e-9)
		}
	case NearMemory:
		return handoffOverhead
	}
	return 0
}

// onChipSupply streams an on-chip task's input and returns when the last
// byte arrives; ok is false for a source the level cannot read.
func (a *Accelerator) onChipSupply(t *Task, now sim.Time) (supplyDone sim.Time, ok bool) {
	meter := a.p.Meter
	cfg := a.p.Cfg
	supplyDone = now
	switch t.Source {
	case SourceSPM:
		// Parameters resident in on-fabric SRAM: no movement.
	case SourceHostDRAM:
		// DRAM → MC → LLC → NoC → accelerator. Streaming working sets far
		// beyond the LLC contend with their own evictions; the pollution
		// factor derates the effective channel efficiency (§IV-B).
		eff := cfg.Memory.StreamEfficieny * cfg.OnChip.CachePollutionFactor
		if t.Pattern == storage.RandomPages {
			eff = cfg.Memory.RandomEfficieny * cfg.OnChip.CachePollutionFactor
		}
		supplyDone = a.p.HostMem.Link().TransferEff(t.Bytes, eff)
		if nocDone := a.p.NoC.Transfer(a.p.llc, a.port, t.Bytes); nocDone > supplyDone {
			supplyDone = nocDone
		}
		meter.DRAMTraffic(t.Stage, t.Bytes)
		meter.MCTraffic(t.Stage, t.Bytes)
		meter.CacheTraffic(t.Stage, t.Bytes)
	case SourceSSD:
		// SSD → host PCIe → DRAM staging → cache → accelerator. The read
		// is striped across the array; every byte also crosses host DRAM
		// twice (staging write + read), and the accelerator's read of the
		// staged buffer cannot overlap the tail of the gather — on-chip
		// acceleration synchronises on staged-buffer completion at batch
		// granularity, unlike the near-data levels that consume in place.
		supplyDone = a.p.readStriped(t.Bytes, t.Pattern)
		eff := cfg.Memory.StreamEfficieny * cfg.OnChip.CachePollutionFactor
		if stg := a.p.HostMem.Link().TransferEff(t.Bytes, eff); stg > supplyDone {
			supplyDone = stg
		}
		readPass := sim.FromSeconds(float64(t.Bytes) / (a.p.HostMem.Link().BytesPerSec() * eff))
		if rd := a.p.HostMem.Link().TransferEff(t.Bytes, eff); rd > supplyDone+readPass {
			supplyDone = rd
		} else {
			supplyDone += readPass
		}
		if nocDone := a.p.NoC.Transfer(a.p.llc, a.port, t.Bytes); nocDone > supplyDone {
			supplyDone = nocDone
		}
		meter.SSDTraffic(t.Stage, t.Bytes)
		meter.PCIeTraffic(t.Stage, t.Bytes)
		meter.DRAMTraffic(t.Stage, 2*t.Bytes)
		meter.MCTraffic(t.Stage, 2*t.Bytes)
		meter.CacheTraffic(t.Stage, t.Bytes)
	default:
		return 0, false
	}
	return supplyDone, true
}

// nearMemSupply streams a near-memory task's input; ok is false for a
// source the level cannot read.
func (a *Accelerator) nearMemSupply(t *Task, now sim.Time) (supplyDone sim.Time, ok bool) {
	meter := a.p.Meter
	dimm := a.local
	supplyDone = now
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
		supplyDone = a.p.readStriped(t.Bytes, t.Pattern)
		if stg := dimm.Stream(2 * t.Bytes); stg > supplyDone {
			supplyDone = stg
		}
		meter.SSDTraffic(t.Stage, t.Bytes)
		meter.PCIeTraffic(t.Stage, t.Bytes)
		meter.MCTraffic(t.Stage, t.Bytes)
		meter.DRAMTraffic(t.Stage, 2*t.Bytes)
	default:
		return 0, false
	}
	return supplyDone, true
}

// nearStorSupply streams a near-storage task's input; ok is false for a
// source the level cannot read.
func (a *Accelerator) nearStorSupply(t *Task, now sim.Time) (supplyDone sim.Time, ok bool) {
	meter := a.p.Meter
	buf := a.local
	supplyDone = now
	switch t.Source {
	case SourceSPM:
		// Resident in the fabric's scratchpad.
	case SourceSSD:
		// The whole point of the level: the local FPGA-SSD link exposes
		// the device's internal bandwidth without touching the host IO
		// interface, so aggregate bandwidth scales with the SSD count.
		supplyDone = a.p.Storage.DeviceRead(a.idx, t.Bytes, t.Pattern)
		meter.SSDTraffic(t.Stage, t.Bytes)
		meter.PCIeTraffic(t.Stage, t.Bytes) // local FPGA-SSD link
	case SourceDeviceDRAM:
		hit := int64(float64(t.Bytes) * a.BufferHitRatio)
		miss := t.Bytes - hit
		if hit > 0 {
			if t.Pattern == storage.RandomPages {
				supplyDone = buf.Random(hit)
			} else {
				supplyDone = buf.Stream(hit)
			}
			meter.DRAMTraffic(t.Stage, hit)
		}
		if miss > 0 {
			// Fall through to flash, then fill the buffer.
			if d := a.p.Storage.DeviceRead(a.idx, miss, t.Pattern); d > supplyDone {
				supplyDone = d
			}
			buf.Stream(miss)
			meter.SSDTraffic(t.Stage, miss)
			meter.PCIeTraffic(t.Stage, miss)
			meter.DRAMTraffic(t.Stage, miss)
		}
	case SourceHostDRAM:
		// Host pushes data over the shared host PCIe link into the
		// device buffer; the kernel reads it back from the buffer.
		hostDone := a.p.Storage.HostToDevice(a.idx, t.Bytes)
		bufDone := buf.Stream(2 * t.Bytes)
		supplyDone = max(hostDone, bufDone)
		meter.DRAMTraffic(t.Stage, 3*t.Bytes) // host read + buffer write/read
		meter.MCTraffic(t.Stage, t.Bytes)
		meter.PCIeTraffic(t.Stage, t.Bytes)
	default:
		return 0, false
	}
	return supplyDone, true
}
