// Package experiments builds and runs the paper's evaluation (Section VI):
// one entry point per table and figure, each returning both structured
// results and a rendered table. The benchmark harness (bench_test.go) and
// the reachsim CLI are thin wrappers over this package.
package experiments

import (
	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Mapping assigns each pipeline stage to a compute level.
type Mapping struct {
	FE, SL, RR accel.Level
}

// ReACHMapping is the paper's optimized deployment (§IV-B, Fig. 7):
// feature extraction on chip, shortlist retrieval near memory, rerank near
// storage.
func ReACHMapping() Mapping {
	return Mapping{FE: accel.OnChip, SL: accel.NearMemory, RR: accel.NearStorage}
}

// SingleLevel maps every stage to one level (the §VI-C baselines).
func SingleLevel(l accel.Level) Mapping { return Mapping{FE: l, SL: l, RR: l} }

// configFor sizes the accelerator population for a mapping: one on-chip
// instance when used, n near-memory/near-storage instances when used.
func configFor(m Mapping, n int) config.SystemConfig {
	onChip, nm, ns := 0, 0, 0
	for _, l := range []accel.Level{m.FE, m.SL, m.RR} {
		switch l {
		case accel.OnChip:
			onChip = 1
		case accel.NearMemory:
			nm = n
		case accel.NearStorage:
			ns = n
		}
	}
	return config.Default().WithInstances(onChip, nm, ns)
}

// BuildPipelineJob constructs one batch's job under a mapping.
func BuildPipelineJob(sys *core.System, id int, m workload.Model, mp Mapping) (*core.Job, error) {
	return buildPipelineJob(sys, id, m, mp, 0)
}

// buildPipelineJob is BuildPipelineJob with each near-data shortlist and
// rerank stage split into `tasks` tasks (workload.AddStage semantics).
func buildPipelineJob(sys *core.System, id int, m workload.Model, mp Mapping, tasks int) (*core.Job, error) {
	j := core.NewJob(id)
	fe, err := workload.AddStage(sys, j, workload.StageFE, mp.FE, m, tasks, nil)
	if err != nil {
		return nil, err
	}
	sl, err := workload.AddStage(sys, j, workload.StageSL, mp.SL, m, tasks, fe)
	if err != nil {
		return nil, err
	}
	if _, err := workload.AddStage(sys, j, workload.StageRR, mp.RR, m, tasks, sl); err != nil {
		return nil, err
	}
	return j, nil
}

// RunResult is the outcome of a pipeline run.
type RunResult struct {
	Sys     *core.System
	Batches int
	// Makespan is first-submit to last-finish.
	Makespan sim.Time
	// Latency is the first batch's submit-to-finish time.
	Latency sim.Time
	// StageSpan is, for the first batch, each stage's earliest-dispatch to
	// latest-completion window.
	StageSpan map[string]sim.Time
	// Jobs holds the completed jobs in submission order.
	Jobs []*core.Job
	// Obs is the run's observability recorder — nil unless the spec set
	// Metrics (see RunSpec.Metrics).
	Obs *metrics.Recorder
	// QLog is the run's per-query trace log — nil unless the spec set
	// QTrace (see RunSpec.QTrace).
	QLog *qtrace.Log
}

// PhaseWindows reduces the run to attribution phases: one window per
// pipeline stage (earliest dispatch to latest GAM detection across every
// job, first-seen stage order) plus a closing "run" window covering
// first-submit to last-finish. Empty before the run completes.
func (r *RunResult) PhaseWindows() []metrics.PhaseWindow {
	type span struct{ lo, hi sim.Time }
	byStage := map[string]*span{}
	var order []string
	for _, j := range r.Jobs {
		for _, n := range j.Nodes {
			st := n.Spec.Stage
			sp, ok := byStage[st]
			if !ok {
				byStage[st] = &span{lo: n.DispatchedAt, hi: n.DetectedAt}
				order = append(order, st)
				continue
			}
			if n.DispatchedAt < sp.lo {
				sp.lo = n.DispatchedAt
			}
			if n.DetectedAt > sp.hi {
				sp.hi = n.DetectedAt
			}
		}
	}
	out := make([]metrics.PhaseWindow, 0, len(order)+1)
	for _, st := range order {
		sp := byStage[st]
		out = append(out, metrics.PhaseWindow{Name: st, Start: sp.lo, End: sp.hi})
	}
	if len(r.Jobs) > 0 {
		out = append(out, metrics.PhaseWindow{
			Name:  "run",
			Start: r.Jobs[0].SubmittedAt,
			End:   r.Jobs[0].SubmittedAt + r.Makespan,
		})
	}
	return out
}

// ThroughputBatchesPerSec reports steady-state throughput.
func (r *RunResult) ThroughputBatchesPerSec() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Batches) / r.Makespan.Seconds()
}

// EnergyPerBatch reports joules per batch for one component.
func (r *RunResult) EnergyPerBatch(c energy.Component) float64 {
	return r.Sys.Meter().Component(c) / float64(r.Batches)
}

// TotalEnergyPerBatch reports joules per batch across components.
func (r *RunResult) TotalEnergyPerBatch() float64 {
	var sum float64
	for _, c := range energy.Components() {
		sum += r.EnergyPerBatch(c)
	}
	return sum
}

// PipelineSpec declares the standard end-to-end pipeline run: `batches`
// consecutive batch jobs of workload m under mapping mp on a system with n
// near-data instances per used level.
func PipelineSpec(name string, m workload.Model, mp Mapping, n, batches int) RunSpec {
	return RunSpec{Name: name, Model: m, Mapping: mp, Instances: n, Batches: batches}
}

// RunPipeline runs the standard pipeline spec synchronously (the
// single-run convenience under the CLI's -stats/-trace paths and the
// functional tests; sweeps go through RunSpecs instead).
func RunPipeline(m workload.Model, mp Mapping, n, batches int) (*RunResult, error) {
	return PipelineSpec("pipeline", m, mp, n, batches).Run()
}
