package experiments

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file implements the design-choice ablations called out in
// DESIGN.md §7 — experiments beyond the paper's figures that quantify the
// GAM mechanisms (§II-D) the paper argues for.

// GAMVariant is one row of the GAM ablation.
type GAMVariant struct {
	Name          string
	Pipelining    bool
	SlackFraction float64
	CommandNS     float64
}

// GAMAblationCell holds one variant's measurements.
type GAMAblationCell struct {
	Variant    GAMVariant
	Throughput float64
	Latency    sim.Time
	MeanPolls  float64
	// MeanDetectLag is the mean time between a near-level task's actual
	// completion and the GAM observing it via a status packet — what the
	// polling slack trades against status traffic.
	MeanDetectLag sim.Time
}

// GAMAblationResult compares GAM scheduling variants on the ReACH mapping.
type GAMAblationResult struct {
	Cells []*GAMAblationCell
}

// gamVariants is the GAM ablation's variant axis.
func gamVariants() []GAMVariant {
	return []GAMVariant{
		{Name: "baseline (pipelined, 10% slack)", Pipelining: true, SlackFraction: 0.10, CommandNS: 500},
		{Name: "no cross-job pipelining", Pipelining: false, SlackFraction: 0.10, CommandNS: 500},
		{Name: "tight polling (1% slack)", Pipelining: true, SlackFraction: 0.01, CommandNS: 500},
		{Name: "loose polling (100% slack)", Pipelining: true, SlackFraction: 1.0, CommandNS: 500},
		{Name: "slow command path (10us)", Pipelining: true, SlackFraction: 0.10, CommandNS: 10_000},
	}
}

// ablationGAMSpecs is the run matrix: the ReACH pipeline once per GAM
// variant, the variant applied as a per-run config mutation.
func ablationGAMSpecs(m workload.Model) []RunSpec {
	variants := gamVariants()
	specs := make([]RunSpec, len(variants))
	for i, v := range variants {
		v := v
		specs[i] = RunSpec{
			Name:      "ablation-gam " + v.Name,
			Model:     m,
			Mapping:   ReACHMapping(),
			Instances: 4,
			Batches:   Fig13Batches,
			Mutate: func(cfg *config.SystemConfig) {
				cfg.GAM.CrossJobPipelining = v.Pipelining
				cfg.GAM.StatusSlackFraction = v.SlackFraction
				cfg.GAM.CommandLatencyNS = v.CommandNS
			},
		}
	}
	return specs
}

// ablationGAMCell reduces one variant's run to its row: throughput,
// latency and the observable polling behaviour of the Fig. 5 machinery.
func ablationGAMCell(v GAMVariant, run *RunResult) *GAMAblationCell {
	var polls, tasks, polled float64
	var lag sim.Time
	for _, j := range run.Jobs {
		for _, n := range j.Nodes {
			polls += float64(n.Polls)
			tasks++
			if n.Polls > 0 {
				polled++
				lag += n.DetectedAt - n.CompletedAt
			}
		}
	}
	cell := &GAMAblationCell{
		Variant:    v,
		Throughput: run.ThroughputBatchesPerSec(),
		Latency:    run.Latency,
		MeanPolls:  polls / tasks,
	}
	if polled > 0 {
		cell.MeanDetectLag = sim.Time(float64(lag) / polled)
	}
	return cell
}

// AblationGAM quantifies the contribution of the GAM's mechanisms: the
// cross-job pipelining of §II-D, and the status-polling slack that trades
// detection latency against status-packet traffic.
func AblationGAM(m workload.Model, opts ...Option) (*GAMAblationResult, error) {
	runs, err := RunSpecs(ablationGAMSpecs(m), opts...)
	if err != nil {
		return nil, err
	}
	res := &GAMAblationResult{}
	for i, v := range gamVariants() {
		res.Cells = append(res.Cells, ablationGAMCell(v, runs[i]))
	}
	return res, nil
}

// Table renders the GAM ablation, normalised to the baseline variant.
func (r *GAMAblationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation — GAM scheduling mechanisms (ReACH mapping, normalised to baseline)",
		Columns: []string{"Variant", "Throughput x", "Latency x", "Polls/task", "Detect lag"},
	}
	base := r.Cells[0]
	for _, c := range r.Cells {
		t.AddRow(
			c.Variant.Name,
			report.F(c.Throughput/base.Throughput, 2),
			report.F(float64(base.Latency)/float64(c.Latency), 2),
			report.F(c.MeanPolls, 2),
			c.MeanDetectLag.String(),
		)
	}
	return t
}

// MappingCell is one candidate stage→level assignment.
type MappingCell struct {
	Mapping    Mapping
	Throughput float64
	Latency    sim.Time
	EnergyJ    float64
}

// Name renders the mapping compactly.
func (c *MappingCell) Name() string {
	return fmt.Sprintf("FE:%s SL:%s RR:%s", c.Mapping.FE, c.Mapping.SL, c.Mapping.RR)
}

// MappingAblationResult ranks every stage→level assignment.
type MappingAblationResult struct {
	Cells []*MappingCell // sorted by descending throughput
}

// allMappings enumerates the full 3^3 stage→level assignment space.
func allMappings() []Mapping {
	levels := []accel.Level{accel.OnChip, accel.NearMemory, accel.NearStorage}
	var out []Mapping
	for _, fe := range levels {
		for _, sl := range levels {
			for _, rr := range levels {
				out = append(out, Mapping{FE: fe, SL: sl, RR: rr})
			}
		}
	}
	return out
}

// ablationMappingSpecs is the run matrix: the full pipeline under every
// stage→level assignment.
func ablationMappingSpecs(m workload.Model) []RunSpec {
	mappings := allMappings()
	specs := make([]RunSpec, len(mappings))
	for i, mp := range mappings {
		specs[i] = PipelineSpec(fmt.Sprintf("ablation-mapping FE:%v SL:%v RR:%v", mp.FE, mp.SL, mp.RR), m, mp, 4, 4)
	}
	return specs
}

// ablationMappingReduce ranks the completed runs by throughput.
func ablationMappingReduce(runs []*RunResult) *MappingAblationResult {
	res := &MappingAblationResult{}
	for i, mp := range allMappings() {
		run := runs[i]
		res.Cells = append(res.Cells, &MappingCell{
			Mapping:    mp,
			Throughput: run.ThroughputBatchesPerSec(),
			Latency:    run.Latency,
			EnergyJ:    run.TotalEnergyPerBatch(),
		})
	}
	sort.Slice(res.Cells, func(i, j int) bool {
		return res.Cells[i].Throughput > res.Cells[j].Throughput
	})
	return res
}

// AblationMapping exhaustively evaluates all 27 stage→level mappings and
// ranks them — the quantitative version of the paper's §IV-B mapping
// argument. The ReACH mapping should rank first on throughput.
func AblationMapping(m workload.Model, opts ...Option) (*MappingAblationResult, error) {
	runs, err := RunSpecs(ablationMappingSpecs(m), opts...)
	if err != nil {
		return nil, err
	}
	return ablationMappingReduce(runs), nil
}

// Best returns the top-throughput mapping.
func (r *MappingAblationResult) Best() *MappingCell { return r.Cells[0] }

// Find returns the cell for a mapping.
func (r *MappingAblationResult) Find(mp Mapping) *MappingCell {
	for _, c := range r.Cells {
		if c.Mapping == mp {
			return c
		}
	}
	return nil
}

// Table renders the top 10 mappings.
func (r *MappingAblationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation — stage-to-level mapping space (top 10 of 27, by throughput)",
		Columns: []string{"Rank", "Mapping", "Batches/s", "Latency ms", "Energy J/batch"},
	}
	for i, c := range r.Cells {
		if i >= 10 {
			break
		}
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			c.Name(),
			report.F(c.Throughput, 2),
			report.F(c.Latency.Milliseconds(), 1),
			report.F(c.EnergyJ, 1),
		)
	}
	t.AddNote("paper's ReACH mapping: FE:OnChip SL:NearMem RR:NearStor")
	return t
}
