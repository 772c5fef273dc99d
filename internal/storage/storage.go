// Package storage models the storage system of the ReACH server: NVMe SSDs
// with internal flash channels, page-granularity reads with IOPS limits,
// the single host-side PCIe Gen3 x16 link all SSDs share (the IO bottleneck
// the paper's rerank analysis centres on), and the per-SSD local PCIe links
// near-storage accelerators use to reach the full internal bandwidth of
// their attached device (paper §II-C).
package storage

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// AccessPattern distinguishes sequential streaming from page-granularity
// random gathers (the rerank candidate fetch).
type AccessPattern int

const (
	// Sequential streams contiguous data at full effective bandwidth.
	Sequential AccessPattern = iota
	// RandomPages gathers scattered pages; throughput is additionally
	// capped by the device's random IOPS.
	RandomPages
)

func (p AccessPattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case RandomPages:
		return "random"
	default:
		return fmt.Sprintf("AccessPattern(%d)", int(p))
	}
}

// SSDConfig parameterises one device.
type SSDConfig struct {
	// InternalBytesPerSec is the aggregate flash-channel bandwidth the
	// device can sustain internally (Table II: 12 GB/s effective).
	InternalBytesPerSec float64
	// FlashChannels is the number of independent NVM channels.
	FlashChannels int
	// PageBytes is the flash read granularity.
	PageBytes int64
	// PageReadLatency is the device-internal latency of one page read.
	PageReadLatency sim.Time
	// RandomIOPS caps page-granularity random reads per second.
	RandomIOPS float64
	// GatherGrainBytes is the effective request size of candidate-gather
	// reads (the rerank access pattern): scattered stripes rather than
	// single 4 KiB pages, so the IOPS limit applies per stripe.
	GatherGrainBytes int64
	// PassThroughLatency is the extra latency the near-storage
	// accelerator's pass-through logic adds to host IO (§II-C: "minimal
	// overhead").
	PassThroughLatency sim.Time
}

// DefaultSSDConfig mirrors the Table II storage system per device.
func DefaultSSDConfig() SSDConfig {
	return SSDConfig{
		InternalBytesPerSec: 12e9,
		FlashChannels:       16,
		PageBytes:           4096,
		PageReadLatency:     80 * sim.Microsecond,
		RandomIOPS:          800_000,
		GatherGrainBytes:    64 << 10,
		PassThroughLatency:  2 * sim.Microsecond,
	}
}

// SSD is one NVMe device.
type SSD struct {
	eng      *sim.Engine
	name     string
	cfg      SSDConfig
	internal *sim.Link // aggregate flash-channel capacity

	reads       uint64
	pagesRead   uint64
	bytesRead   uint64
	bytesHost   uint64 // portion that crossed to the host
	bytesDevice uint64 // portion consumed by the attached accelerator
}

// NewSSD creates a device on eng.
func NewSSD(eng *sim.Engine, name string, cfg SSDConfig) *SSD {
	if cfg.InternalBytesPerSec <= 0 || cfg.PageBytes <= 0 || cfg.RandomIOPS <= 0 {
		panic(fmt.Sprintf("storage: invalid SSD config %+v", cfg))
	}
	return &SSD{
		eng:      eng,
		name:     name,
		cfg:      cfg,
		internal: sim.NewLink(eng, name+".flash", cfg.InternalBytesPerSec, cfg.PageReadLatency),
	}
}

// Name reports the device name.
func (s *SSD) Name() string { return s.name }

// Config reports the device configuration.
func (s *SSD) Config() SSDConfig { return s.cfg }

// readInternal accounts the flash-side work of reading n bytes and returns
// its completion time. Random gathers are limited by both bandwidth and
// IOPS; the binding constraint wins.
func (s *SSD) readInternal(n int64, pattern AccessPattern) sim.Time {
	if n <= 0 {
		return s.eng.Now()
	}
	s.reads++
	s.bytesRead += uint64(n)
	switch pattern {
	case RandomPages:
		grain := s.cfg.GatherGrainBytes
		if grain <= 0 {
			grain = s.cfg.PageBytes
		}
		reqs := (n + grain - 1) / grain
		s.pagesRead += uint64((n + s.cfg.PageBytes - 1) / s.cfg.PageBytes)
		bwTime := float64(n) / s.cfg.InternalBytesPerSec
		iopsTime := float64(reqs) / s.cfg.RandomIOPS
		d := sim.FromSeconds(math.Max(bwTime, iopsTime))
		return s.internal.Occupy(d, n)
	default:
		s.pagesRead += uint64((n + s.cfg.PageBytes - 1) / s.cfg.PageBytes)
		return s.internal.Transfer(n)
	}
}

// Stats snapshot.
type SSDStats struct {
	Reads       uint64
	PagesRead   uint64
	BytesRead   uint64
	BytesHost   uint64
	BytesDevice uint64
}

// Stats returns the device counters.
func (s *SSD) Stats() SSDStats {
	return SSDStats{
		Reads: s.reads, PagesRead: s.pagesRead, BytesRead: s.bytesRead,
		BytesHost: s.bytesHost, BytesDevice: s.bytesDevice,
	}
}

// Array is the storage system: a set of SSDs behind one shared host PCIe
// link. Near-storage accelerators bypass the host link entirely.
type Array struct {
	eng  *sim.Engine
	ssds []*SSD
	// hostLink is the single PCIe Gen3 x16 connection between the host
	// and the whole SSD array (16 GB/s raw, ~12 GB/s effective after IO
	// software stack inefficiency [6]); registered as "ssd.host_link".
	hostLink *sim.Link
	hostEff  float64
	// GatherEff further derates the host interface for scattered
	// candidate-gather reads (RandomPages): each stripe is a separate
	// NVMe command through the IO software stack. 1.0 disables the
	// penalty.
	GatherEff float64
}

// NewArray builds n identical SSDs behind one host link of rawBytesPerSec
// with the given software efficiency (effective = raw × eff).
func NewArray(eng *sim.Engine, n int, cfg SSDConfig, rawBytesPerSec, eff float64, hostLatency sim.Time) *Array {
	if n <= 0 {
		panic("storage: array needs at least one SSD")
	}
	if eff <= 0 || eff > 1 {
		panic("storage: host link efficiency must be in (0,1]")
	}
	a := &Array{
		eng:       eng,
		hostLink:  sim.NewLink(eng, "ssd.host_link", rawBytesPerSec, hostLatency),
		hostEff:   eff,
		GatherEff: 1.0,
	}
	for i := 0; i < n; i++ {
		a.ssds = append(a.ssds, NewSSD(eng, fmt.Sprintf("ssd%d", i), cfg))
	}
	return a
}

// SSDs exposes the devices.
func (a *Array) SSDs() []*SSD { return a.ssds }

// SSD returns device i.
func (a *Array) SSD(i int) *SSD { return a.ssds[i] }

// Len reports the number of devices.
func (a *Array) Len() int { return len(a.ssds) }

// HostRead moves n bytes from SSD i to host memory: flash-side read plus
// the shared host PCIe link, plus the pass-through logic of an attached
// near-storage accelerator. Returns arrival time of the last byte at the
// host. This is the path on-chip and near-memory accelerators must use to
// reach storage data.
func (a *Array) HostRead(i int, n int64, pattern AccessPattern) sim.Time {
	s := a.ssds[i]
	s.bytesHost += uint64(n)
	flashDone := s.readInternal(n, pattern)
	eff := a.hostEff
	if pattern == RandomPages && a.GatherEff > 0 {
		eff *= a.GatherEff
	}
	// The PCIe transfer begins as data becomes available; with deep NVMe
	// queues the link transfer pipelines with the flash read, so the
	// completion is bounded by the later of the two resources plus the
	// pass-through hop.
	pcieDone := a.hostLink.TransferEff(n, eff)
	done := flashDone
	if pcieDone > done {
		done = pcieDone
	}
	return done + s.cfg.PassThroughLatency
}

// HostToDevice moves n bytes from host memory to the accelerator attached
// to SSD i (e.g. preloading kernel parameters into its private DRAM
// buffer): it crosses the shared host PCIe link but not the flash channels.
func (a *Array) HostToDevice(i int, n int64) sim.Time {
	s := a.ssds[i]
	done := a.hostLink.TransferEff(n, a.hostEff)
	return done + s.cfg.PassThroughLatency
}

// DeviceRead moves n bytes from SSD i into its attached near-storage
// accelerator over the local FPGA-SSD link — no host PCIe involvement, so
// the aggregate bandwidth of the array scales with the number of devices.
func (a *Array) DeviceRead(i int, n int64, pattern AccessPattern) sim.Time {
	s := a.ssds[i]
	s.bytesDevice += uint64(n)
	return s.readInternal(n, pattern)
}

// HostLinkBytes reports payload moved over the shared host PCIe link.
func (a *Array) HostLinkBytes() uint64 { return a.hostLink.ResourceStats().Bytes }

// HostLinkQueuedDelay reports accumulated contention on the host link —
// the quantity that saturates in Fig. 11's near-memory rerank plateau.
func (a *Array) HostLinkQueuedDelay() sim.Time { return a.hostLink.ResourceStats().Wait }

// EffectiveHostBandwidth reports raw × efficiency in bytes/s.
func (a *Array) EffectiveHostBandwidth() float64 {
	return a.hostLink.BytesPerSec() * a.hostEff
}
