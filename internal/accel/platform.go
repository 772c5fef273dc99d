// Package accel models the three ReACH compute levels — the on-chip
// accelerator (paper §II-A), the AIM-based near-memory accelerators
// (§II-B) and the near-storage accelerators (§II-C) — as one Accelerator
// type whose level selects the data path behind its FPGA fabric, and the
// Platform that owns the shared resources they contend for (host memory
// channels, the AIMbus, the host PCIe link, the SSD array, the on-chip
// network).
package accel

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Level identifies a ReACH compute level (plus the host CPU endpoint), as
// in the public API's Listing 1.
type Level int

const (
	// OnChip is the cache-coherent on-chip accelerator.
	OnChip Level = iota
	// NearMemory is an AIM module attached to a DRAM DIMM.
	NearMemory
	// NearStorage is an FPGA attached to an NVMe SSD.
	NearStorage
	// CPU is the host endpoint (source/sink of streams, not an
	// accelerator).
	CPU
)

func (l Level) String() string {
	switch l {
	case OnChip:
		return "OnChip"
	case NearMemory:
		return "NearMem"
	case NearStorage:
		return "NearStor"
	case CPU:
		return "CPU"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Platform owns the simulated hardware shared by all accelerator
// instances. Construct one per experiment.
type Platform struct {
	Eng   *sim.Engine
	Cfg   config.SystemConfig
	Meter *energy.Meter

	// NoC is the on-chip crossbar (CPU, LLC, GAM, on-chip accelerators).
	// The LLC itself is modelled in bulk: its capacity (Cfg.CPU.SharedL2)
	// bounds GAM's forced writebacks and its traffic is charged as cache
	// energy, with no per-line state.
	NoC *noc.Crossbar
	// llc is the LLC's NoC port, which on-chip instances stream their
	// input from.
	llc *noc.Port
	// HostMem is the aggregate host-DRAM bandwidth (the channels backing
	// the CPU/on-chip DIMMs, cacheline-interleaved).
	HostMem *mem.Port
	// NearDIMMs holds one dedicated port per near-memory DIMM (Table II:
	// 18 GB/s each).
	NearDIMMs []*mem.Port
	// AIMBus is the shared inter-DIMM accelerator bus, registered as
	// "mem.aimbus".
	AIMBus *sim.Link
	// Storage is the SSD array behind the shared host PCIe link.
	Storage *storage.Array
	// DevBuffers holds the near-storage accelerators' private DRAM buffer
	// ports, one per SSD.
	DevBuffers []*mem.Port

	// nextID numbers each level's instances in construction order.
	nextID [CPU]int
}

// NewPlatform builds the hardware described by cfg, charging energy to
// meter.
func NewPlatform(eng *sim.Engine, cfg config.SystemConfig, meter *energy.Meter) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{
		Eng:   eng,
		Cfg:   cfg,
		Meter: meter,
	}

	p.NoC = noc.New(eng, "noc", 20*sim.Nanosecond)
	p.NoC.MustAddPort("cpu", cfg.OnChip.NoCGBps*config.GBps)
	p.llc = p.NoC.MustAddPort("llc", cfg.OnChip.NoCGBps*config.GBps)
	p.NoC.MustAddPort("gam", cfg.OnChip.NoCGBps*config.GBps)

	// Host DRAM: the host-side DIMMs sit behind the memory controllers'
	// channels; pairs of DIMMs share a channel, so aggregate bandwidth is
	// channels × per-channel rate.
	hostChannels := (cfg.Memory.HostDIMMs + 1) / 2
	hostBW := float64(hostChannels) * cfg.Memory.ChannelGBps * config.GBps
	p.HostMem = mem.NewPort(eng, "mem.host", hostBW, 60*sim.Nanosecond,
		cfg.Memory.StreamEfficieny, cfg.Memory.RandomEfficieny)

	for i := 0; i < cfg.Memory.NearMemDIMMs; i++ {
		p.NearDIMMs = append(p.NearDIMMs, mem.NewPort(eng,
			fmt.Sprintf("mem.aimdimm%d", i),
			cfg.Memory.NearMemGBps*config.GBps, 45*sim.Nanosecond,
			0.95, cfg.Memory.RandomEfficieny))
	}
	p.AIMBus = sim.NewLink(eng, "mem.aimbus", cfg.Memory.AIMBusGBps*config.GBps, 80*sim.Nanosecond)

	ssdCfg := storage.SSDConfig{
		InternalBytesPerSec: cfg.Storage.DeviceGBps * config.GBps,
		FlashChannels:       cfg.Storage.FlashChannels,
		PageBytes:           cfg.Storage.PageBytes,
		PageReadLatency:     sim.FromSeconds(cfg.Storage.ReadLatencyUS * 1e-6),
		RandomIOPS:          cfg.Storage.RandomIOPS,
		GatherGrainBytes:    cfg.Storage.GatherGrainBytes,
		PassThroughLatency:  2 * sim.Microsecond,
	}
	p.Storage = storage.NewArray(eng, cfg.Storage.SSDs, ssdCfg,
		cfg.Storage.HostPCIeRawGBps*config.GBps,
		cfg.Storage.HostPCIeGBps/cfg.Storage.HostPCIeRawGBps,
		5*sim.Microsecond)
	p.Storage.GatherEff = cfg.Storage.HostGatherEff

	for i := 0; i < cfg.Storage.SSDs; i++ {
		// The private device DRAM buffer: a single DDR4 channel's worth.
		p.DevBuffers = append(p.DevBuffers, mem.NewPort(eng,
			fmt.Sprintf("mem.nsbuf%d", i),
			cfg.Memory.ChannelGBps*config.GBps, 60*sim.Nanosecond,
			cfg.Memory.StreamEfficieny, cfg.Memory.RandomEfficieny))
	}
	return p, nil
}

// readStriped reads n bytes spread evenly across the SSD array through the
// host interface and returns the last completion.
func (p *Platform) readStriped(n int64, pattern storage.AccessPattern) sim.Time {
	count := p.Storage.Len()
	per := n / int64(count)
	var last sim.Time
	for i := 0; i < count; i++ {
		chunk := per
		if i == count-1 {
			chunk = n - per*int64(count-1)
		}
		if d := p.Storage.HostRead(i, chunk, pattern); d > last {
			last = d
		}
	}
	return last
}
