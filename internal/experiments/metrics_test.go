package experiments

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestBottleneckNamesAIMbusWhenInterleaved is the observability layer's
// acceptance check: for the near-memory shortlist stage with the database
// interleaved across DIMMs, nearly the whole scan crosses the shared
// 12.8 GB/s AIMbus, and the bottleneck-attribution report must say so.
func TestBottleneckNamesAIMbusWhenInterleaved(t *testing.T) {
	spec, err := NearMemInterleavedSpec(4, workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	spec.Metrics = &metrics.Options{Spans: true}
	run, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Obs == nil || run.Obs.Sampler.Samples() == 0 {
		t.Fatal("run was not sampled")
	}
	atts := metrics.Attribute(run.Obs.Sampler, run.PhaseWindows())
	var found bool
	for _, a := range atts {
		if a.Phase != "run" {
			continue
		}
		found = true
		if a.Resource != "mem.aimbus" {
			t.Errorf("run-phase bottleneck = %q (pressure %.2f), want mem.aimbus",
				a.Resource, a.Pressure)
		}
		if a.Share <= 0.5 {
			t.Errorf("AIMbus critical-path share = %.2f, want > 0.5 for an interleaved scan", a.Share)
		}
	}
	if !found {
		t.Fatal("no run phase in attributions")
	}
}

// TestBottleneckLocalPartitioningAvoidsAIMbus pins the contrast: the
// DIMM-local shortlist configuration (RemoteFraction 0) must NOT attribute
// its runtime to the AIMbus — the paper's reason for partitioning the
// database DIMM-locally in the first place.
func TestBottleneckLocalPartitioningAvoidsAIMbus(t *testing.T) {
	spec, err := StageSpec(workload.StageSL, accel.NearMemory, 4, workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	spec.Metrics = &metrics.Options{}
	run, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range metrics.Attribute(run.Obs.Sampler, run.PhaseWindows()) {
		if a.Resource == "mem.aimbus" {
			t.Errorf("phase %q attributed to mem.aimbus in the DIMM-local configuration", a.Phase)
		}
	}
}

// TestRunSpecsWithMetricsObserve: every instrumented run is observed, in
// spec order, each with its series and phase windows.
func TestRunSpecsWithMetricsObserve(t *testing.T) {
	m := workload.DefaultModel()
	specs := []RunSpec{
		PipelineSpec("a", m, ReACHMapping(), 2, 1),
		PipelineSpec("b", m, ReACHMapping(), 2, 1),
	}
	var seen []string
	res, err := RunSpecs(specs, WithMetrics(metrics.Options{}, func(run string, series metrics.Source, phases []metrics.PhaseWindow) {
		if series == nil || series.Samples() == 0 || len(phases) == 0 {
			t.Errorf("observed run %q without samples or phase windows", run)
		}
		seen = append(seen, run)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Fatalf("observed %v, want [a b]", seen)
	}
	// The caller's specs stay uninstrumented (RunSpecs copies).
	for i := range specs {
		if specs[i].Metrics != nil {
			t.Fatal("WithMetrics mutated the caller's specs")
		}
	}
	for _, r := range res {
		if r.Obs == nil {
			t.Fatal("result without recorder")
		}
	}
}

// TestPhaseWindowsCoverStages: windows come back per stage plus the
// closing "run" window spanning the makespan.
func TestPhaseWindowsCoverStages(t *testing.T) {
	spec := PipelineSpec("p", workload.DefaultModel(), ReACHMapping(), 2, 2)
	spec.Metrics = &metrics.Options{}
	run, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	wins := run.PhaseWindows()
	byName := map[string]metrics.PhaseWindow{}
	for _, w := range wins {
		byName[w.Name] = w
	}
	for _, st := range []string{workload.StageFE, workload.StageSL, workload.StageRR, "run"} {
		w, ok := byName[st]
		if !ok {
			t.Fatalf("missing phase window %q (have %v)", st, wins)
		}
		if w.End <= w.Start {
			t.Fatalf("phase %q window empty: %v..%v", st, w.Start, w.End)
		}
	}
	if got := byName["run"].End - byName["run"].Start; got != run.Makespan {
		t.Fatalf("run window %v != makespan %v", got, run.Makespan)
	}
}

// TestMetricsObserverEffectZero: attaching the observability layer must
// not perturb the simulation — identical makespan, latency and registry
// counters with and without a recorder.
func TestMetricsObserverEffectZero(t *testing.T) {
	m := workload.DefaultModel()
	plain, err := PipelineSpec("plain", m, ReACHMapping(), 2, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	spec := PipelineSpec("observed", m, ReACHMapping(), 2, 3)
	spec.Metrics = &metrics.Options{Spans: true}
	observed, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != observed.Makespan || plain.Latency != observed.Latency {
		t.Fatalf("observer effect: makespan %v vs %v, latency %v vs %v",
			plain.Makespan, observed.Makespan, plain.Latency, observed.Latency)
	}
	digest := func(r *RunResult) map[string][3]uint64 {
		d := map[string][3]uint64{}
		r.Sys.Engine().Stats().Walk(func(name string, res sim.Resource) {
			st := res.ResourceStats()
			d[name] = [3]uint64{st.Ops, st.Bytes, uint64(st.Busy)}
		})
		return d
	}
	dp, do := digest(plain), digest(observed)
	if len(dp) != len(do) {
		t.Fatalf("registry sizes differ: %d vs %d", len(dp), len(do))
	}
	for name, v := range dp {
		if do[name] != v {
			t.Errorf("resource %s diverged: %v vs %v", name, v, do[name])
		}
	}
}
