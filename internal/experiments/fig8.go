package experiments

import (
	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/workload"
)

// Fig8Result is the energy breakdown of the on-chip-only CBIR pipeline:
// the left chart (component × stage stacking) and the right chart (per
// stage compute vs data movement shares).
type Fig8Result struct {
	Run *RunResult
	// ComponentStage[c][stage] is joules per batch.
	ComponentStage map[energy.Component]map[string]float64
	// StageCompute/StageMovement are each stage's share of total energy.
	StageCompute  map[string]float64
	StageMovement map[string]float64
	TotalJ        float64
	MovementShare float64
}

// fig8Specs is the experiment's run matrix: one on-chip-only pipeline run.
func fig8Specs(m workload.Model) []RunSpec {
	return []RunSpec{PipelineSpec("fig8 onchip", m, SingleLevel(accel.OnChip), 1, 1)}
}

// fig8Reduce derives the energy distribution from the completed run.
func fig8Reduce(run *RunResult) *Fig8Result {
	meter := run.Sys.Meter()
	res := &Fig8Result{
		Run:            run,
		ComponentStage: make(map[energy.Component]map[string]float64),
		StageCompute:   make(map[string]float64),
		StageMovement:  make(map[string]float64),
	}
	res.TotalJ = meter.Total()
	for _, c := range energy.Components() {
		res.ComponentStage[c] = make(map[string]float64)
		for _, st := range workload.Stages() {
			res.ComponentStage[c][st] = meter.ComponentStage(c, st)
		}
	}
	for _, st := range workload.Stages() {
		res.StageCompute[st] = meter.StageKind(st, energy.Compute) / res.TotalJ
		res.StageMovement[st] = meter.StageKind(st, energy.Movement) / res.TotalJ
	}
	var movement float64
	for _, st := range workload.Stages() {
		movement += meter.StageKind(st, energy.Movement)
	}
	res.MovementShare = movement / res.TotalJ
	return res
}

// Fig8 runs the end-to-end CBIR pipeline on the on-chip accelerator only
// and reports the energy distribution (paper: ~79 % movement; rerank
// movement ~52 % of total).
func Fig8(m workload.Model, opts ...Option) (*Fig8Result, error) {
	runs, err := RunSpecs(fig8Specs(m), opts...)
	if err != nil {
		return nil, err
	}
	return fig8Reduce(runs[0]), nil
}

// Table renders the Fig. 8 breakdown.
func (r *Fig8Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig 8 — energy breakdown, on-chip-only CBIR (J per batch)",
		Columns: []string{"Component", workload.StageFE, workload.StageSL, workload.StageRR, "Total"},
	}
	for _, c := range energy.Components() {
		row := []string{c.String()}
		var sum float64
		for _, st := range workload.Stages() {
			v := r.ComponentStage[c][st]
			sum += v
			row = append(row, report.F(v, 2))
		}
		row = append(row, report.F(sum, 2))
		t.AddRow(row...)
	}
	t.AddNote("total %.1f J/batch; data movement share %s (paper: ~79%%)",
		r.TotalJ, report.Pct(r.MovementShare))
	for _, st := range workload.Stages() {
		t.AddNote("%s: compute %s, movement %s of total (paper rerank movement: ~52%%)",
			st, report.Pct(r.StageCompute[st]), report.Pct(r.StageMovement[st]))
	}
	return t
}
