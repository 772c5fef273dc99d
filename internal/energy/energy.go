// Package energy implements the energy model of the ReACH evaluation
// (paper §V, Table IV): per-component meters for accelerators, cache, DRAM,
// SSD, memory-controller/interconnect and PCIe, with attribution to
// application pipeline stages so the Figure 8 and Figure 13c breakdowns can
// be reproduced.
//
// The paper derives its numbers from SDAccel post-routing reports, the
// Xilinx Power Estimator, CACTI 6.5, the Micron DDR4 power calculator and
// NVMe SSD datasheets. This reproduction replaces those tools with
// documented per-byte and per-watt constants (see Costs) calibrated so that
// the on-chip end-to-end run reproduces the published energy distribution:
// ~79 % of energy in data movement, with the rerank stage's movement alone
// ~52 % of the total.
package energy

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Component identifies one energy-bearing part of the system — the
// categories of the paper's Figure 8 / Figure 13c x-axes.
type Component int

const (
	// ACC is accelerator (FPGA kernel) energy.
	ACC Component = iota
	// Cache is shared-cache access energy.
	Cache
	// DRAM is main-memory (and near-storage buffer) energy.
	DRAM
	// SSD is storage device energy.
	SSD
	// MCInterconnect is memory-controller and on-chip interconnect energy.
	MCInterconnect
	// PCIe is host-IO and device link energy.
	PCIe

	numComponents
)

// Components lists all components in the paper's presentation order.
func Components() []Component {
	return []Component{ACC, Cache, DRAM, SSD, MCInterconnect, PCIe}
}

func (c Component) String() string {
	switch c {
	case ACC:
		return "ACC"
	case Cache:
		return "Cache"
	case DRAM:
		return "DRAM"
	case SSD:
		return "SSD"
	case MCInterconnect:
		return "MC and Interconnect"
	case PCIe:
		return "PCIe"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Kind classifies energy as compute or data movement — the split of the
// right-hand chart of Figure 8.
type Kind int

const (
	// Compute is energy spent in accelerator datapaths.
	Compute Kind = iota
	// Movement is energy spent moving bytes through the memory/IO
	// hierarchy.
	Movement
)

func (k Kind) String() string {
	if k == Compute {
		return "Compute"
	}
	return "Data movement"
}

// Costs holds the model constants. All movement constants are joules per
// byte for one traversal of that component; power constants are watts.
//
// Calibration rationale (full derivation in DESIGN.md §5):
//
//   - DRAMPerByte 1.5 nJ/B: end-to-end DDR4 access energy at 64 B
//     granularity including activation amortisation and IO/termination —
//     the upper-middle of the range measured in [33].
//   - CachePerByte 0.6 nJ/B: multi-megabyte shared LLC access energy per
//     byte (CACTI 6.5 class values for a 2 MB array plus NoC traversal).
//   - SSDPerByte 2.5 nJ/B: enterprise NVMe read energy (≈10 W at 4 GB/s
//     mixed-pattern throughput, Nytro-class device [30]).
//   - PCIePerByte 0.6 nJ/B: Gen3 link + switch energy [31][32].
//   - MCPerByte 0.5 nJ/B: controller queues and on-chip interconnect.
//   - AIMBusPerByte 0.3 nJ/B: short inter-DIMM hop.
type Costs struct {
	CachePerByte  float64
	DRAMPerByte   float64
	MCPerByte     float64
	SSDPerByte    float64
	PCIePerByte   float64
	AIMBusPerByte float64

	// DRAMBackgroundWPerDIMM is per-DIMM background (refresh + standby)
	// power, charged for the duration of an experiment.
	DRAMBackgroundWPerDIMM float64
	// SSDIdleW is per-device idle power.
	SSDIdleW float64
}

// DefaultCosts returns the calibrated constants.
func DefaultCosts() Costs {
	return Costs{
		CachePerByte:           0.6e-9,
		DRAMPerByte:            1.5e-9,
		MCPerByte:              0.5e-9,
		SSDPerByte:             2.5e-9,
		PCIePerByte:            0.6e-9,
		AIMBusPerByte:          0.3e-9,
		DRAMBackgroundWPerDIMM: 0.9,
		SSDIdleW:               2.0,
	}
}

// Meter accumulates energy, attributed to (component, pipeline stage,
// compute-vs-movement). Each stage label seen is interned once, in
// first-charge order, with a fixed array of cells indexed by component and
// kind: a charge finds its stage by a scan of a short slice (a run has
// fewer than ten stages) instead of hashing a key, and every query sums
// the cells in one fixed order, so its result is bit-reproducible.
type Meter struct {
	costs  Costs
	stages []stageCells
}

// stageCells is one stage's joules, indexed by component and kind.
type stageCells struct {
	stage string
	j     [numComponents][2]float64
}

// NewMeter creates a meter with the given constants.
func NewMeter(costs Costs) *Meter {
	return &Meter{costs: costs}
}

// cells returns the stage's cell array, interning the stage on first use.
func (m *Meter) cells(stage string) *[numComponents][2]float64 {
	for i := range m.stages {
		if m.stages[i].stage == stage {
			return &m.stages[i].j
		}
	}
	m.stages = append(m.stages, stageCells{stage: stage})
	return &m.stages[len(m.stages)-1].j
}

// sum adds the cells accepted by keep, in stage, component, kind order.
func (m *Meter) sum(keep func(stage string, c Component, k Kind) bool) float64 {
	var sum float64
	for i := range m.stages {
		sc := &m.stages[i]
		for c := range sc.j {
			for k, v := range sc.j[c] {
				if keep(sc.stage, Component(c), Kind(k)) {
					sum += v
				}
			}
		}
	}
	return sum
}

// Costs reports the meter's constants.
func (m *Meter) Costs() Costs { return m.costs }

// Add records joules against (component, stage, kind).
func (m *Meter) Add(c Component, stage string, kind Kind, joules float64) {
	if joules < 0 {
		panic(fmt.Sprintf("energy: negative energy %v for %v/%s", joules, c, stage))
	}
	m.cells(stage)[c][kind] += joules
}

// AddActive records P×t compute energy for an accelerator.
func (m *Meter) AddActive(stage string, powerW float64, d sim.Time) {
	m.Add(ACC, stage, Compute, powerW*d.Seconds())
}

// Movement helpers: each charges bytes × the component constant as
// movement energy.

// CacheTraffic records LLC access energy.
func (m *Meter) CacheTraffic(stage string, bytes int64) {
	m.Add(Cache, stage, Movement, float64(bytes)*m.costs.CachePerByte)
}

// DRAMTraffic records one DRAM traversal.
func (m *Meter) DRAMTraffic(stage string, bytes int64) {
	m.Add(DRAM, stage, Movement, float64(bytes)*m.costs.DRAMPerByte)
}

// MCTraffic records memory-controller/interconnect energy.
func (m *Meter) MCTraffic(stage string, bytes int64) {
	m.Add(MCInterconnect, stage, Movement, float64(bytes)*m.costs.MCPerByte)
}

// SSDTraffic records storage read/write energy.
func (m *Meter) SSDTraffic(stage string, bytes int64) {
	m.Add(SSD, stage, Movement, float64(bytes)*m.costs.SSDPerByte)
}

// PCIeTraffic records host-IO or device link energy.
func (m *Meter) PCIeTraffic(stage string, bytes int64) {
	m.Add(PCIe, stage, Movement, float64(bytes)*m.costs.PCIePerByte)
}

// AIMBusTraffic records inter-DIMM bus energy (accounted to
// MC/Interconnect, where the paper's breakdown places it).
func (m *Meter) AIMBusTraffic(stage string, bytes int64) {
	m.Add(MCInterconnect, stage, Movement, float64(bytes)*m.costs.AIMBusPerByte)
}

// AddBackground charges DRAM background and SSD idle power for an
// experiment window.
func (m *Meter) AddBackground(stage string, dimms, ssds int, d sim.Time) {
	m.Add(DRAM, stage, Movement, float64(dimms)*m.costs.DRAMBackgroundWPerDIMM*d.Seconds())
	m.Add(SSD, stage, Movement, float64(ssds)*m.costs.SSDIdleW*d.Seconds())
}

// Total reports total joules.
func (m *Meter) Total() float64 {
	return m.sum(func(string, Component, Kind) bool { return true })
}

// Component reports total joules for one component.
func (m *Meter) Component(c Component) float64 {
	return m.sum(func(_ string, cc Component, _ Kind) bool { return cc == c })
}

// Stage reports total joules for one pipeline stage.
func (m *Meter) Stage(stage string) float64 {
	return m.sum(func(s string, _ Component, _ Kind) bool { return s == stage })
}

// StageKind reports joules for (stage, kind) — the Figure 8 right chart.
func (m *Meter) StageKind(stage string, kind Kind) float64 {
	return m.sum(func(s string, _ Component, k Kind) bool { return s == stage && k == kind })
}

// ComponentStage reports joules for (component, stage) — the Figure 8 left
// chart's stacking.
func (m *Meter) ComponentStage(c Component, stage string) float64 {
	return m.sum(func(s string, cc Component, _ Kind) bool { return cc == c && s == stage })
}

// Kind reports total joules of one kind.
func (m *Meter) Kind(kind Kind) float64 {
	return m.sum(func(_ string, _ Component, k Kind) bool { return k == kind })
}

// MovementShare reports movement / total, the paper's headline "79 % of the
// remaining energy cost is due to data movement".
func (m *Meter) MovementShare() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return m.Kind(Movement) / t
}

// Stages lists the stage labels seen so far, sorted.
func (m *Meter) Stages() []string {
	out := make([]string, len(m.stages))
	for i := range m.stages {
		out[i] = m.stages[i].stage
	}
	sort.Strings(out)
	return out
}

// Merge adds all of other's cells into m.
func (m *Meter) Merge(other *Meter) {
	for i := range other.stages {
		dst := m.cells(other.stages[i].stage)
		for c, kinds := range other.stages[i].j {
			for k, v := range kinds {
				dst[c][k] += v
			}
		}
	}
}

// Reset clears all accumulated energy.
func (m *Meter) Reset() {
	m.stages = nil
}
