package core

import (
	"repro/internal/accel"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Transfer moves `bytes` of stream payload from src to dst compute level,
// reserving the links on the path and charging energy to `stage`. dstIdx
// selects the destination instance where the level has per-instance media
// (near-memory DIMMs, near-storage buffers); it is ignored otherwise.
// Returns the completion time.
//
// These are the operations of the paper's Fig. 6: GAM forces cache
// writebacks before feeding near-memory accelerators (2b), initiates PCIe
// transfers for near-storage ones (2c), and DMAs results back up the
// hierarchy.
func (s *System) Transfer(src, dst accel.Level, dstIdx int, bytes int64, stage string) sim.Time {
	if bytes <= 0 {
		return s.eng.Now()
	}
	// Within the coherent host domain, same-level "transfers" are just
	// buffer handovers; between sibling near-memory or near-storage
	// instances real links are crossed (AIMbus / host PCIe switch).
	if src == dst && (src == accel.CPU || src == accel.OnChip) {
		return s.eng.Now()
	}
	p := s.plat
	m := s.meter
	done := s.eng.Now()

	max := func(t sim.Time) {
		if t > done {
			done = t
		}
	}

	fromHostSide := src == accel.CPU || src == accel.OnChip
	switch {
	case fromHostSide && dst == accel.OnChip, fromHostSide && dst == accel.CPU:
		// Within the coherent domain: cache/NoC only.
		max(p.HostMem.Stream(bytes))
		m.CacheTraffic(stage, bytes)
	case fromHostSide && dst == accel.NearMemory:
		// Force a write-back of any cached copy, then DMA host DRAM →
		// memory network → target DIMM.
		wb := s.forceWriteback(bytes, stage)
		max(wb)
		max(p.HostMem.Stream(bytes))
		max(p.NearDIMMs[dstIdx%len(p.NearDIMMs)].Stream(bytes))
		m.DRAMTraffic(stage, 2*bytes) // host read + DIMM write
		m.MCTraffic(stage, bytes)
	case fromHostSide && dst == accel.NearStorage:
		wb := s.forceWriteback(bytes, stage)
		max(wb)
		max(p.HostMem.Stream(bytes))
		max(p.Storage.HostToDevice(dstIdx%p.Storage.Len(), bytes))
		max(p.DevBuffers[dstIdx%len(p.DevBuffers)].Stream(bytes))
		m.DRAMTraffic(stage, 2*bytes) // host read + device buffer write
		m.MCTraffic(stage, bytes)
		m.PCIeTraffic(stage, bytes)
	case src == accel.NearMemory && (dst == accel.CPU || dst == accel.OnChip):
		max(p.NearDIMMs[0].Stream(bytes))
		max(p.HostMem.Stream(bytes))
		m.DRAMTraffic(stage, 2*bytes)
		m.MCTraffic(stage, bytes)
	case src == accel.NearMemory && dst == accel.NearMemory:
		// Sibling DIMMs over the AIMbus.
		max(p.AIMBus.Transfer(bytes))
		m.DRAMTraffic(stage, 2*bytes)
		m.AIMBusTraffic(stage, bytes)
	case src == accel.NearMemory && dst == accel.NearStorage:
		max(p.NearDIMMs[0].Stream(bytes))
		max(p.Storage.HostToDevice(dstIdx%p.Storage.Len(), bytes))
		max(p.DevBuffers[dstIdx%len(p.DevBuffers)].Stream(bytes))
		m.DRAMTraffic(stage, 2*bytes)
		m.MCTraffic(stage, bytes)
		m.PCIeTraffic(stage, bytes)
	case src == accel.NearStorage && (dst == accel.CPU || dst == accel.OnChip):
		max(p.Storage.HostToDevice(dstIdx%p.Storage.Len(), bytes)) // device→host crosses the same shared link
		max(p.HostMem.Stream(bytes))
		m.PCIeTraffic(stage, bytes)
		m.DRAMTraffic(stage, bytes)
		m.MCTraffic(stage, bytes)
	case src == accel.NearStorage && dst == accel.NearMemory:
		max(p.Storage.HostToDevice(dstIdx%p.Storage.Len(), bytes))
		max(p.NearDIMMs[dstIdx%len(p.NearDIMMs)].Stream(bytes))
		m.PCIeTraffic(stage, bytes)
		m.DRAMTraffic(stage, bytes)
		m.MCTraffic(stage, bytes)
	case src == accel.NearStorage && dst == accel.NearStorage:
		// Device-to-device via the host switch.
		max(p.Storage.HostToDevice(dstIdx%p.Storage.Len(), 2*bytes))
		m.PCIeTraffic(stage, 2*bytes)
		m.DRAMTraffic(stage, bytes)
	default:
		// CPU↔CPU or unhandled: treat as coherent-domain copy.
		max(p.HostMem.Stream(bytes))
		m.CacheTraffic(stage, bytes)
	}
	return done
}

// forceWriteback models GAM flushing cached copies of a stream region
// before a lower level may consume it: the dirty fraction of the region
// that can live in the LLC (its whole lines) is written back to DRAM.
func (s *System) forceWriteback(bytes int64, stage string) sim.Time {
	resident := bytes
	line := int64(s.cfg.CPU.L2LineBytes)
	if cap := s.cfg.CPU.SharedL2 / line * line; resident > cap {
		resident = cap
	}
	if resident <= 0 {
		return s.eng.Now()
	}
	done := s.plat.HostMem.Stream(resident)
	s.meter.CacheTraffic(stage, resident)
	s.meter.DRAMTraffic(stage, resident)
	return done
}

// LoadFixedBuffer accounts the one-time placement of a fixed buffer at a
// level (Fig. 6 step 2: initial data loading from the file system /
// storage into each level's memory region). It is charged to the given
// stage label (usually "Setup") and excluded from steady-state per-batch
// accounting by the experiment harness.
func (s *System) LoadFixedBuffer(dst accel.Level, dstIdx int, bytes int64, stage string) sim.Time {
	if bytes <= 0 {
		return s.eng.Now()
	}
	p := s.plat
	m := s.meter
	switch dst {
	case accel.NearStorage:
		// Already resident on the SSDs: nothing to move.
		return s.eng.Now()
	case accel.NearMemory:
		done := p.Storage.HostRead(dstIdx%p.Storage.Len(), bytes, storage.Sequential)
		if d := p.NearDIMMs[dstIdx%len(p.NearDIMMs)].Stream(bytes); d > done {
			done = d
		}
		m.SSDTraffic(stage, bytes)
		m.PCIeTraffic(stage, bytes)
		m.DRAMTraffic(stage, bytes)
		return done
	default: // OnChip / CPU: into host DRAM (and SPM for small sets)
		done := p.Storage.HostRead(0, bytes, storage.Sequential)
		if d := p.HostMem.Stream(bytes); d > done {
			done = d
		}
		m.SSDTraffic(stage, bytes)
		m.PCIeTraffic(stage, bytes)
		m.DRAMTraffic(stage, bytes)
		return done
	}
}
