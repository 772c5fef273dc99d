// Package core implements the paper's primary contribution: the ReACH
// system assembly and its hardware Global Accelerator Manager (GAM,
// §II-D). The GAM receives job requests from the host, breaks them into
// task groups, dispatches tasks to idle accelerators at their mapped
// compute level, tracks progress with estimated-wait status polling (the
// Fig. 5 micro-architecture), initiates the inter-level DMA transfers
// between dependent tasks, and pipelines tasks of consecutive jobs when no
// dependency exists — which is what turns the three-stage CBIR pipeline
// into a throughput machine bounded by its slowest stage.
package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/fpga"
	"repro/internal/sim"
)

// System is one simulated ReACH server: the platform hardware, the
// accelerator instances of each level, and the GAM. A System built with
// NewSystem owns its engine (the single-server experiments); one built
// with NewNode is a composable node sharing an engine with its siblings,
// its resources registered under a node prefix.
type System struct {
	eng      *sim.Engine
	cfg      config.SystemConfig
	prefix   string
	meter    *energy.Meter
	plat     *accel.Platform
	registry *fpga.Registry

	// accs[l] holds level l's instances in construction order.
	accs [accel.CPU][]*accel.Accelerator

	gam *GAM
}

// NewSystem builds a single-server system per cfg on a fresh engine,
// instantiating cfg.Instances accelerators at each level.
func NewSystem(cfg config.SystemConfig) (*System, error) {
	return NewNode(sim.NewEngine(), cfg, "")
}

// NewNode builds one ReACH server as a composable node on an event
// domain — either a standalone engine shared with other nodes (serial
// cluster) or one domain of a sim.MultiEngine (parallel cluster; the
// node's entire hardware platform then executes in that domain). Every
// resource the node constructs — memory ports, NoC links, SSD channels,
// GAM stream buffers — registers under prefix (e.g. "node0."), so N nodes
// coexist in one registry with disjoint hierarchical names. An empty
// prefix reproduces the single-server registry byte for byte.
func NewNode(eng *sim.Domain, cfg config.SystemConfig, prefix string) (*System, error) {
	meter := energy.NewMeter(energy.DefaultCosts())
	// The prefix holds until the accelerators are built: an on-chip
	// instance adds its NoC ports to the registry.
	old := eng.Stats().SetPrefix(prefix)
	defer eng.Stats().SetPrefix(old)
	plat, err := accel.NewPlatform(eng, cfg, meter)
	if err != nil {
		return nil, err
	}
	s := &System{
		eng:      eng,
		cfg:      cfg,
		prefix:   prefix,
		meter:    meter,
		plat:     plat,
		registry: fpga.NewRegistry(),
	}
	counts := [accel.CPU]int{cfg.Instances.OnChip, cfg.Instances.NearMemory, cfg.Instances.NearStorage}
	for l, n := range counts {
		for i := 0; i < n; i++ {
			a, err := plat.NewAccelerator(accel.Level(l), i)
			if err != nil {
				return nil, err
			}
			s.accs[l] = append(s.accs[l], a)
		}
	}
	s.gam = newGAM(s)
	return s, nil
}

// Engine exposes the simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Config reports the system configuration.
func (s *System) Config() config.SystemConfig { return s.cfg }

// Meter exposes the energy meter.
func (s *System) Meter() *energy.Meter { return s.meter }

// Platform exposes the shared hardware.
func (s *System) Platform() *accel.Platform { return s.plat }

// Registry exposes the accelerator-template registry.
func (s *System) Registry() *fpga.Registry { return s.registry }

// GAM exposes the global accelerator manager.
func (s *System) GAM() *GAM { return s.gam }

// Accelerators returns the instances at one level, nil for the CPU or an
// unknown level. The population is fixed after NewNode and the slice is
// the System's own — callers must not mutate it.
func (s *System) Accelerators(l accel.Level) []*accel.Accelerator {
	if l < accel.OnChip || l >= accel.CPU {
		return nil
	}
	return s.accs[l]
}

// InstanceCount reports the accelerator population at a level.
func (s *System) InstanceCount(l accel.Level) int {
	return len(s.Accelerators(l))
}

// Run drains the simulation calendar. On a shared-engine node this drains
// the whole cluster's calendar — callers owning several nodes run the
// engine once instead.
func (s *System) Run() { s.eng.Run() }

// Background charges the DRAM/SSD background energy for the elapsed
// simulated window, attributed to the given stage label. Call once per
// experiment after Run.
func (s *System) Background(stage string, window sim.Time) {
	dimms := s.cfg.Memory.HostDIMMs + s.cfg.Memory.NearMemDIMMs
	s.meter.AddBackground(stage, dimms, s.cfg.Storage.SSDs, window)
}

// gamCommandLatency is the GAM↔device command/status packet latency.
func (s *System) gamCommandLatency() sim.Time {
	return sim.FromSeconds(s.cfg.GAM.CommandLatencyNS * 1e-9)
}

func (s *System) checkLevelPopulated(l accel.Level) error {
	if s.InstanceCount(l) == 0 {
		return fmt.Errorf("core: no accelerator instances at level %v", l)
	}
	return nil
}
