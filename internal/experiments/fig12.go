package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig12Cell is one bar of Fig. 12: the end-to-end pipeline on a single
// compute level with n instances, decomposed by stage.
type Fig12Cell struct {
	Level        accel.Level
	Instances    int
	StageRuntime map[string]sim.Time
	StageEnergy  map[string]float64
	Runtime      sim.Time
	EnergyJ      float64
}

// Fig12Result holds the whole figure, normalised to the on-chip baseline.
type Fig12Result struct {
	Cells    []*Fig12Cell
	Baseline *Fig12Cell // on-chip, 1 instance
}

// Fig12Counts is the figure's instance axis.
func Fig12Counts() []int { return []int{1, 2, 4} }

// fig12Specs is the run matrix: the on-chip baseline first, then each
// near-data level at each instance count (the on-chip bar does not scale
// with n, so it is a single run reused across columns).
func fig12Specs(m workload.Model) (specs []RunSpec, levels []accel.Level, counts []int) {
	add := func(l accel.Level, n int) {
		specs = append(specs, PipelineSpec(fmt.Sprintf("fig12 %v/%d", l, n), m, SingleLevel(l), n, 1))
		levels = append(levels, l)
		counts = append(counts, n)
	}
	add(accel.OnChip, 1)
	for _, n := range Fig12Counts() {
		add(accel.NearMemory, n)
		add(accel.NearStorage, n)
	}
	return specs, levels, counts
}

// fig12Cell reduces one run to its bar.
func fig12Cell(l accel.Level, n int, run *RunResult) *Fig12Cell {
	cell := &Fig12Cell{
		Level:        l,
		Instances:    n,
		StageRuntime: run.StageSpan,
		StageEnergy:  make(map[string]float64),
		Runtime:      run.Latency,
	}
	meter := run.Sys.Meter()
	for _, st := range workload.Stages() {
		cell.StageEnergy[st] = meter.Stage(st)
		cell.EnergyJ += meter.Stage(st)
	}
	return cell
}

// Fig12 runs the end-to-end CBIR pipeline on each single compute level at
// 1, 2 and 4 instances (the paper reserves half the DIMMs for the host, so
// near-memory scales to 4).
func Fig12(m workload.Model, opts ...Option) (*Fig12Result, error) {
	specs, levels, counts := fig12Specs(m)
	runs, err := RunSpecs(specs, opts...)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{Baseline: fig12Cell(levels[0], counts[0], runs[0])}
	for i := 1; i < len(runs); i++ {
		// Rebuild the figure's column order: each instance count shows
		// the (unscaled) on-chip bar before its near-data bars.
		if levels[i] == accel.NearMemory {
			res.Cells = append(res.Cells, res.Baseline)
		}
		res.Cells = append(res.Cells, fig12Cell(levels[i], counts[i], runs[i]))
	}
	return res, nil
}

// Table renders Fig. 12: normalised runtime and energy per (level,
// instances), stacked by stage.
func (r *Fig12Result) Table() *report.Table {
	t := &report.Table{
		Title: "Fig 12 — end-to-end CBIR on a single compute level (normalised to on-chip)",
		Columns: []string{"ACCs", "Level", "Runtime", "Energy",
			"FE ms", "SL ms", "RR ms"},
	}
	for _, c := range r.Cells {
		t.AddRow(
			fmt.Sprintf("%d", c.Instances),
			c.Level.String(),
			report.F(float64(c.Runtime)/float64(r.Baseline.Runtime), 2),
			report.F(c.EnergyJ/r.Baseline.EnergyJ, 2),
			report.F(c.StageRuntime[workload.StageFE].Milliseconds(), 1),
			report.F(c.StageRuntime[workload.StageSL].Milliseconds(), 1),
			report.F(c.StageRuntime[workload.StageRR].Milliseconds(), 1),
		)
	}
	t.AddNote("on-chip baseline: %.1f ms, %.2f J per batch",
		r.Baseline.Runtime.Milliseconds(), r.Baseline.EnergyJ)
	return t
}
