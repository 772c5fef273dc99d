package experiments

import (
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestParallelRunsAreIndependent is the -race smoke test for the whole
// parallel layer: a heterogeneous batch of specs — different mappings,
// config mutations, custom job builders and background modes — runs eight
// at a time. Every run builds its own core.System (its own engine, meter,
// platform and kernel registry), so the race detector must stay silent and
// each spec must reproduce its serial result exactly.
func TestParallelRunsAreIndependent(t *testing.T) {
	m := workload.DefaultModel()
	var specs []RunSpec
	specs = append(specs, PipelineSpec("pipe reach", m, ReACHMapping(), 4, 2))
	specs = append(specs, PipelineSpec("pipe onchip", m, SingleLevel(accel.OnChip), 1, 2))
	specs = append(specs, fig8Specs(m)...)
	specs = append(specs, ablationGAMSpecs(m)[:2]...)
	specs = append(specs, granularitySpecs(m)[:2]...)
	skews, _ := skewSpecs(m)
	specs = append(specs, skews[:2]...)
	stage, err := StageSpec(workload.StageSL, accel.NearMemory, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, stage)

	serial := make([]*RunResult, len(specs))
	for i, s := range specs {
		r, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		serial[i] = r
	}

	parallel, err := RunSpecs(specs, WithPool(runner.NewPool(8)))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if got, want := parallel[i].Latency, serial[i].Latency; got != want {
			t.Errorf("%s: parallel latency %v != serial %v", s.Name, got, want)
		}
		if got, want := parallel[i].Makespan, serial[i].Makespan; got != want {
			t.Errorf("%s: parallel makespan %v != serial %v", s.Name, got, want)
		}
	}
}

// TestParallelExperimentsShareOnePool drives several whole experiments
// concurrently through one shared pool — the -exp all shape — under the
// race detector.
func TestParallelExperimentsShareOnePool(t *testing.T) {
	m := workload.DefaultModel()
	pool := runner.NewPool(4)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(3)
	go func() { defer wg.Done(); _, errs[0] = Fig8(m, WithPool(pool)) }()
	go func() { defer wg.Done(); _, errs[1] = Fig13(m, WithPool(pool)) }()
	go func() { defer wg.Done(); _, errs[2] = AblationGranularity(m, WithPool(pool)) }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
