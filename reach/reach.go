// Package reach is the public programming interface of the ReACH
// reconfigurable accelerator compute hierarchy — the Go rendition of the
// paper's library-based programming model (§III, Listings 1-3).
//
// A ReACH application is written in two parts:
//
//   - a configuration (the paper's config.h): RegisterAcc binds
//     pre-synthesised accelerator templates to compute levels,
//     CreateFixedBuffer pins data regions at a level, CreateStream creates
//     communication buffers between levels, and SetArg wires buffers and
//     streams to accelerator arguments;
//   - a host program (host.cpp): Begin/Enqueue/Execute/Commit describe the
//     per-batch task flow in conventional synchronous style while the GAM
//     handles the asynchronous scheduling, data movement and cross-batch
//     pipelining underneath.
//
// The package drives the repository's cycle-level simulator: executing a
// pipeline yields the simulated latency, throughput and per-component
// energy of the configured hierarchy.
package reach

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/sim"
)

// Level selects a compute level (Listing 1).
type Level int

const (
	// OnChip is the cache-coherent on-chip accelerator level.
	OnChip Level = iota
	// NearMem is the accelerator-interposed memory (AIM) level.
	NearMem
	// NearStor is the SSD-attached accelerator level.
	NearStor
	// CPU is the host endpoint for stream sources/sinks.
	CPU
)

func (l Level) String() string { return l.internal().String() }

func (l Level) internal() accel.Level {
	switch l {
	case OnChip:
		return accel.OnChip
	case NearMem:
		return accel.NearMemory
	case NearStor:
		return accel.NearStorage
	default:
		return accel.CPU
	}
}

// StreamType selects the communication pattern of a stream (Listing 1):
// one-to-all, all-to-one, or one-to-one.
type StreamType int

const (
	// BroadCast duplicates each element to every accelerator instance at
	// the destination level.
	BroadCast StreamType = iota
	// Collect gathers elements from all source instances to one consumer.
	Collect
	// Pair connects one producer to one consumer.
	Pair
)

func (t StreamType) String() string {
	switch t {
	case BroadCast:
		return "BroadCast"
	case Collect:
		return "Collect"
	case Pair:
		return "Pair"
	default:
		return fmt.Sprintf("StreamType(%d)", int(t))
	}
}

// Option configures a System.
type Option func(*config.SystemConfig)

// WithInstances sets the accelerator population per level.
func WithInstances(onChip, nearMem, nearStor int) Option {
	return func(c *config.SystemConfig) {
		*c = c.WithInstances(onChip, nearMem, nearStor)
	}
}

// WithCrossJobPipelining toggles GAM's dispatching of the next job's tasks
// before the previous job fully completes (§II-D).
func WithCrossJobPipelining(on bool) Option {
	return func(c *config.SystemConfig) { c.GAM.CrossJobPipelining = on }
}

// System is one configured ReACH machine plus its meta-accelerator state.
type System struct {
	sys      *core.System
	accs     []*ACC
	buffers  []*Buffer
	streams  []*Stream
	deployed bool

	nextJob int

	// per-level rotation for auto-assigned instances
	nextInstance map[Level]int
}

// NewSystem builds a simulated ReACH server. With no options it matches
// the paper's Table II setup (1 on-chip, 4 near-memory, 4 near-storage
// accelerator instances).
func NewSystem(opts ...Option) (*System, error) {
	cfg := config.Default()
	for _, o := range opts {
		o(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &System{sys: sys, nextInstance: make(map[Level]int)}, nil
}

// Now reports the current simulated time.
func (s *System) Now() sim.Time { return s.sys.Engine().Now() }

// Resources exposes the central stats registry: every shared hardware
// resource (memory channels, AIMbus, PCIe links, NoC ports, stream
// buffers, request queues, NVMe windows) under its hierarchical name, with
// the uniform base-layer statistics snapshot.
func (s *System) Resources() *sim.StatsRegistry { return s.sys.Engine().Stats() }

// Run drains all scheduled simulation work.
func (s *System) Run() { s.sys.Run() }

// Energy returns the per-component energy breakdown accumulated so far, in
// joules, keyed by the component names of the paper's Fig. 8.
func (s *System) Energy() map[string]float64 {
	out := make(map[string]float64)
	for _, c := range energy.Components() {
		out[c.String()] = s.sys.Meter().Component(c)
	}
	return out
}

// TotalEnergy reports total joules.
func (s *System) TotalEnergy() float64 { return s.sys.Meter().Total() }
