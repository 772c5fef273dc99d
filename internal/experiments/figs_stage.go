package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// StageResult is one cell of the Figs. 9-11 sweeps.
type StageResult struct {
	Level     accel.Level
	Instances int
	Runtime   sim.Time
	EnergyJ   float64
}

// StageSpec declares a single pipeline stage run in isolation at one
// level with n instances. Its makespan is the stage's runtime, so standby
// is charged over exactly that.
func StageSpec(stage string, l accel.Level, n int, m workload.Model) (RunSpec, error) {
	switch l {
	case accel.OnChip, accel.NearMemory, accel.NearStorage:
	default:
		return RunSpec{}, fmt.Errorf("experiments: cannot run a stage on %v", l)
	}
	return RunSpec{
		Name:      fmt.Sprintf("%s@%v/%d", stage, l, n),
		Model:     m,
		Mapping:   SingleLevel(l),
		Instances: n,
		Batches:   1,
		BuildJob: func(sys *core.System, id int) (*core.Job, error) {
			j := core.NewJob(id)
			if _, err := workload.AddStage(sys, j, stage, l, m, 0, nil); err != nil {
				return nil, err
			}
			return j, nil
		},
	}, nil
}

// NearMemInterleavedSpec is the shortlist stage at near-memory with the
// database interleaved across all n DIMMs instead of partitioned
// DIMM-locally: each instance finds (n-1)/n of its scan bytes on remote
// DIMMs and pulls them across the shared AIMbus. The configuration the
// bottleneck-attribution report is validated against — with the whole scan
// crossing one 12.8 GB/s bus, "mem.aimbus" must surface as the
// top-pressure resource.
func NearMemInterleavedSpec(n int, m workload.Model) (RunSpec, error) {
	spec, err := StageSpec(workload.StageSL, accel.NearMemory, n, m)
	if err != nil {
		return RunSpec{}, err
	}
	if n < 2 {
		return RunSpec{}, fmt.Errorf("experiments: interleaving needs >= 2 DIMMs, got %d", n)
	}
	spec.Name = fmt.Sprintf("%s@%v/%d-interleaved", workload.StageSL, accel.NearMemory, n)
	inner := spec.BuildJob
	spec.BuildJob = func(sys *core.System, id int) (*core.Job, error) {
		j, err := inner(sys, id)
		if err != nil {
			return nil, err
		}
		rf := float64(n-1) / float64(n)
		for _, node := range j.Nodes {
			node.Spec.RemoteFraction = rf
		}
		return j, nil
	}
	return spec, nil
}

// stageResult reduces one isolated-stage run to a Figs. 9-11 cell.
func stageResult(l accel.Level, n int, run *RunResult) *StageResult {
	return &StageResult{
		Level:     l,
		Instances: n,
		Runtime:   run.Latency,
		EnergyJ:   run.Sys.Meter().Total(),
	}
}

// RunStage executes a single pipeline stage in isolation at one level with
// n instances and reports its runtime and energy (background included over
// the stage runtime).
func RunStage(stage string, l accel.Level, n int, m workload.Model) (*StageResult, error) {
	spec, err := StageSpec(stage, l, n, m)
	if err != nil {
		return nil, err
	}
	run, err := spec.Run()
	if err != nil {
		return nil, err
	}
	return stageResult(l, n, run), nil
}

// StageSweep holds a Figs. 9-11 style sweep: near-memory and near-storage
// results over instance counts, normalised to the single on-chip
// accelerator.
type StageSweep struct {
	Stage    string
	Counts   []int
	OnChip   *StageResult
	NearMem  map[int]*StageResult
	NearStor map[int]*StageResult
}

// NormRuntime reports runtime(level, n) / runtime(on-chip).
func (s *StageSweep) NormRuntime(l accel.Level, n int) float64 {
	r := s.result(l, n)
	if r == nil || s.OnChip.Runtime == 0 {
		return 0
	}
	return float64(r.Runtime) / float64(s.OnChip.Runtime)
}

// NormEnergy reports energy(level, n) / energy(on-chip).
func (s *StageSweep) NormEnergy(l accel.Level, n int) float64 {
	r := s.result(l, n)
	if r == nil || s.OnChip.EnergyJ == 0 {
		return 0
	}
	return r.EnergyJ / s.OnChip.EnergyJ
}

func (s *StageSweep) result(l accel.Level, n int) *StageResult {
	switch l {
	case accel.NearMemory:
		return s.NearMem[n]
	case accel.NearStorage:
		return s.NearStor[n]
	default:
		return s.OnChip
	}
}

// SweepCounts is the instance axis of Figs. 9-11.
func SweepCounts() []int { return []int{1, 2, 4, 8, 16} }

// stageSweepSpecs builds the sweep's run matrix: the on-chip baseline
// followed by (near-memory, near-storage) pairs at each instance count.
func stageSweepSpecs(stage string, m workload.Model) ([]RunSpec, []func(*StageSweep, *RunResult), error) {
	var specs []RunSpec
	var place []func(*StageSweep, *RunResult)
	add := func(l accel.Level, n int, assign func(*StageSweep, *StageResult)) error {
		spec, err := StageSpec(stage, l, n, m)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		place = append(place, func(s *StageSweep, run *RunResult) {
			assign(s, stageResult(l, n, run))
		})
		return nil
	}
	if err := add(accel.OnChip, 1, func(s *StageSweep, r *StageResult) { s.OnChip = r }); err != nil {
		return nil, nil, err
	}
	for _, n := range SweepCounts() {
		n := n
		if err := add(accel.NearMemory, n, func(s *StageSweep, r *StageResult) { s.NearMem[n] = r }); err != nil {
			return nil, nil, err
		}
		if err := add(accel.NearStorage, n, func(s *StageSweep, r *StageResult) { s.NearStor[n] = r }); err != nil {
			return nil, nil, err
		}
	}
	return specs, place, nil
}

// RunStageSweep produces the data behind one of Figs. 9-11, running the
// eleven isolated-stage simulations in parallel.
func RunStageSweep(stage string, m workload.Model, opts ...Option) (*StageSweep, error) {
	specs, place, err := stageSweepSpecs(stage, m)
	if err != nil {
		return nil, err
	}
	runs, err := RunSpecs(specs, opts...)
	if err != nil {
		return nil, err
	}
	sweep := &StageSweep{
		Stage:    stage,
		Counts:   SweepCounts(),
		NearMem:  make(map[int]*StageResult),
		NearStor: make(map[int]*StageResult),
	}
	for i, run := range runs {
		place[i](sweep, run)
	}
	return sweep, nil
}

// Table renders the sweep in the layout of Figs. 9-11: one row per
// instance count, normalised runtime and energy for both levels.
func (s *StageSweep) Table(figure string) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("%s — %s runtime/energy vs on-chip (normalised)", figure, s.Stage),
		Columns: []string{"ACCs", "NearMem runtime", "NearMem energy",
			"NearStor runtime", "NearStor energy"},
	}
	for _, n := range s.Counts {
		t.AddRow(
			fmt.Sprintf("%d", n),
			report.F(s.NormRuntime(accel.NearMemory, n), 2),
			report.F(s.NormEnergy(accel.NearMemory, n), 2),
			report.F(s.NormRuntime(accel.NearStorage, n), 2),
			report.F(s.NormEnergy(accel.NearStorage, n), 2),
		)
	}
	t.AddNote("on-chip baseline: %.1f ms, %.2f J (normalised to 1.0)",
		s.OnChip.Runtime.Milliseconds(), s.OnChip.EnergyJ)
	return t
}

// Fig9 reproduces the feature-extraction sweep.
func Fig9(m workload.Model, opts ...Option) (*StageSweep, error) {
	return RunStageSweep(workload.StageFE, m, opts...)
}

// Fig10 reproduces the shortlist-retrieval sweep.
func Fig10(m workload.Model, opts ...Option) (*StageSweep, error) {
	return RunStageSweep(workload.StageSL, m, opts...)
}

// Fig11 reproduces the rerank sweep.
func Fig11(m workload.Model, opts ...Option) (*StageSweep, error) {
	return RunStageSweep(workload.StageRR, m, opts...)
}
