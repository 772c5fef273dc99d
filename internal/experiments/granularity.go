package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// GranularityCell is one task-size point.
type GranularityCell struct {
	TasksPerStage int
	Throughput    float64
	Latency       sim.Time
	ControlPlane  uint64 // command packets + status polls
}

// GranularityResult quantifies §II-D's design rule: "the accelerator tasks
// are intentionally designed to be small enough to exploit task-level
// parallelism but large enough to amortize the data transfer overhead."
// The ReACH pipeline is run with each near-data stage decomposed into
// 4…256 tasks. That whole axis sits on one plateau (7.509 → 7.508
// batches/s) while GAM packets grow 61×: the under-used instances of a
// too-coarse decomposition, and the GAM traffic of a too-fine one, show
// only off the axis, below 4 and above 256 tasks (ROADMAP item 10).
type GranularityResult struct {
	Cells []*GranularityCell
}

// granularityTaskCounts is the sweep's decomposition axis.
func granularityTaskCounts() []int { return []int{4, 16, 64, 256} }

// granularityBatches measures steady state; per-task GAM overheads are what
// fine granularity amplifies.
const granularityBatches = 6

// granularitySpecs is the run matrix: the ReACH pipeline with each
// near-data stage decomposed into 4…256 tasks.
func granularitySpecs(m workload.Model) []RunSpec {
	counts := granularityTaskCounts()
	specs := make([]RunSpec, len(counts))
	for i, tasks := range counts {
		tasks := tasks
		specs[i] = RunSpec{
			Name:      fmt.Sprintf("granularity %d tasks/stage", tasks),
			Model:     m,
			Mapping:   ReACHMapping(),
			Instances: 4,
			Batches:   granularityBatches,
			BuildJob: func(sys *core.System, id int) (*core.Job, error) {
				return buildPipelineJob(sys, id, m, ReACHMapping(), tasks)
			},
		}
	}
	return specs
}

// granularityCell reduces one decomposition's run to its row.
func granularityCell(tasks int, run *RunResult) *GranularityCell {
	g := run.Sys.GAM().Stats()
	return &GranularityCell{
		TasksPerStage: tasks,
		Throughput:    run.ThroughputBatchesPerSec(),
		Latency:       run.Latency,
		ControlPlane:  g.CommandPackets + g.StatusPolls,
	}
}

// AblationGranularity runs the sweep on the ReACH mapping with 4 instances
// per near-data level.
func AblationGranularity(m workload.Model, opts ...Option) (*GranularityResult, error) {
	runs, err := RunSpecs(granularitySpecs(m), opts...)
	if err != nil {
		return nil, err
	}
	res := &GranularityResult{}
	for i, tasks := range granularityTaskCounts() {
		res.Cells = append(res.Cells, granularityCell(tasks, runs[i]))
	}
	return res, nil
}

// Best returns the highest-throughput cell.
func (r *GranularityResult) Best() *GranularityCell {
	best := r.Cells[0]
	for _, c := range r.Cells[1:] {
		if c.Throughput > best.Throughput {
			best = c
		}
	}
	return best
}

// Table renders the sweep.
func (r *GranularityResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation — task granularity (§II-D), ReACH mapping, 4 instances/level",
		Columns: []string{"Tasks/stage", "Batches/s", "Latency ms", "GAM packets"},
	}
	for _, c := range r.Cells {
		t.AddRow(
			fmt.Sprintf("%d", c.TasksPerStage),
			report.F(c.Throughput, 2),
			report.F(c.Latency.Milliseconds(), 1),
			fmt.Sprintf("%d", c.ControlPlane),
		)
	}
	t.AddNote("tasks must be small enough for task-level parallelism, large enough to amortise transfer/control overhead")
	return t
}
