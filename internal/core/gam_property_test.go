package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// buildRandomJob creates a job with `n` tasks whose dependencies only point
// backwards (guaranteeing a DAG) across random levels with random work.
func buildRandomJob(t *testing.T, s *System, id int, rng *rand.Rand, n int) *Job {
	t.Helper()
	j := NewJob(id)
	kernels := map[accel.Level][]string{
		accel.OnChip:      {"CNN-VU9P", "GEMM-VU9P", "KNN-VU9P"},
		accel.NearMemory:  {"CNN-ZCU9", "GEMM-ZCU9", "KNN-ZCU9"},
		accel.NearStorage: {"CNN-ZCU9", "GEMM-ZCU9", "KNN-ZCU9"},
	}
	levels := []accel.Level{accel.OnChip, accel.NearMemory, accel.NearStorage}
	var nodes []*TaskNode
	for i := 0; i < n; i++ {
		level := levels[rng.Intn(len(levels))]
		names := kernels[level]
		kname := names[rng.Intn(len(names))]
		k, err := s.Registry().Lookup(kname)
		if err != nil {
			t.Fatal(err)
		}
		var deps []*TaskNode
		for _, prev := range nodes {
			if rng.Float64() < 0.25 {
				deps = append(deps, prev)
			}
		}
		var src accel.Source
		switch level {
		case accel.OnChip:
			src = []accel.Source{accel.SourceSPM, accel.SourceHostDRAM, accel.SourceSSD}[rng.Intn(3)]
		case accel.NearMemory:
			src = []accel.Source{accel.SourceSPM, accel.SourceLocalDIMM, accel.SourceHostDRAM, accel.SourceSSD}[rng.Intn(4)]
		default:
			src = []accel.Source{accel.SourceSPM, accel.SourceSSD, accel.SourceDeviceDRAM}[rng.Intn(3)]
		}
		node := j.AddTask(accel.Task{
			Name:    "t",
			Stage:   "prop",
			Kernel:  k,
			MACs:    float64(rng.Intn(1_000_000_000)),
			Bytes:   int64(rng.Intn(50_000_000)),
			Source:  src,
			Pattern: storage.AccessPattern(rng.Intn(2)),
		}, level, deps...)
		if rng.Float64() < 0.3 {
			node.Pin = rng.Intn(s.InstanceCount(level))
		}
		node.OutBytes = int64(rng.Intn(100_000))
		if rng.Float64() < 0.2 {
			node.SinkToHost = true
		}
		nodes = append(nodes, node)
	}
	return j
}

// TestGAMRandomDAGs is the core scheduler property test: for arbitrary
// task DAGs across all three levels, every job completes; every node's
// timeline is causally ordered; dependencies are respected; and no
// accelerator instance ever runs two tasks at once.
func TestGAMRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSystem(config.Default().WithInstances(1, 2+rng.Intn(3), 2+rng.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		nJobs := 1 + rng.Intn(4)
		var jobs []*Job
		for id := 0; id < nJobs; id++ {
			j := buildRandomJob(t, s, id, rng, 1+rng.Intn(10))
			if err := s.GAM().Submit(j); err != nil {
				t.Fatalf("seed %d: submit: %v", seed, err)
			}
			jobs = append(jobs, j)
		}
		s.Run()

		type span struct {
			instance string
			from, to int64
		}
		var spans []span
		for _, j := range jobs {
			if !j.Done() {
				t.Fatalf("seed %d: job %d incomplete", seed, j.ID)
			}
			for _, n := range j.Nodes {
				// Causal timeline.
				if !(n.ReadyAt <= n.DispatchedAt && n.DispatchedAt <= n.CompletedAt && n.CompletedAt <= n.DetectedAt) {
					t.Fatalf("seed %d: timeline violated: ready=%v disp=%v done=%v det=%v",
						seed, n.ReadyAt, n.DispatchedAt, n.CompletedAt, n.DetectedAt)
				}
				// Dependencies: every dependent dispatched after this
				// node's detection.
				for _, dep := range n.dependents {
					if dep.DispatchedAt < n.DetectedAt {
						t.Fatalf("seed %d: dependent dispatched at %v before producer detected at %v",
							seed, dep.DispatchedAt, n.DetectedAt)
					}
				}
				spans = append(spans, span{n.Instance, int64(n.DispatchedAt), int64(n.CompletedAt)})
			}
		}
		// Exclusivity: per instance, execution windows may touch but not
		// overlap. (Dispatch happens a command-latency before execution
		// starts, so compare completion of one against dispatch of next.)
		byInst := map[string][]span{}
		for _, sp := range spans {
			byInst[sp.instance] = append(byInst[sp.instance], sp)
		}
		for inst, list := range byInst {
			sort.Slice(list, func(i, j int) bool { return list[i].from < list[j].from })
			for i := 1; i < len(list); i++ {
				if list[i].from < list[i-1].to {
					t.Fatalf("seed %d: instance %s double-booked: [%d,%d] overlaps [%d,%d]",
						seed, inst, list[i-1].from, list[i-1].to, list[i].from, list[i].to)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGAMDeterminism: the same job stream produces bit-identical timing.
func TestGAMDeterminism(t *testing.T) {
	run := func() []int64 {
		s, err := NewSystem(config.Default())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		var jobs []*Job
		for id := 0; id < 3; id++ {
			j := buildRandomJob(t, s, id, rng, 8)
			if err := s.GAM().Submit(j); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		s.Run()
		var times []int64
		for _, j := range jobs {
			times = append(times, int64(j.FinishedAt))
			for _, n := range j.Nodes {
				times = append(times, int64(n.DispatchedAt), int64(n.CompletedAt), int64(n.DetectedAt))
			}
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different event counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// FuzzJobReuse checks that a job graph run again after Reset is
// indistinguishable from a freshly built copy. One system runs a batch of
// random graphs, then resets them under new ids and runs them again; a twin
// system runs the same first batch, then fresh graphs built from the same
// seed. Both second batches must match node for node and job for job, and
// the two systems must end with equal GAM counters and equal decision spans
// (a stale dispatch cause would show in the spans).
func FuzzJobReuse(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cfgRNG := rand.New(rand.NewSource(seed))
		cfg := config.Default().WithInstances(1, 1+cfgRNG.Intn(3), 1+cfgRNG.Intn(3))
		cfg.GAM.CrossJobPipelining = cfgRNG.Intn(2) == 0
		build := func(s *System, firstID int) []*Job {
			rng := rand.New(rand.NewSource(seed))
			jobs := make([]*Job, 1+rng.Intn(4))
			for i := range jobs {
				jobs[i] = buildRandomJob(t, s, firstID+i, rng, 1+rng.Intn(10))
				jobs[i].Priority = rng.Intn(2)
			}
			return jobs
		}
		run := func(reuse bool) (*System, []*Job) {
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.GAM().SetSpanLog(metrics.NewSpanLog())
			submit := func(jobs []*Job) {
				for _, j := range jobs {
					if err := s.GAM().Submit(j); err != nil {
						t.Fatalf("seed %d: submit job %d: %v", seed, j.ID, err)
					}
				}
				s.Run()
			}
			first := build(s, 0)
			submit(first)
			second := first
			if reuse {
				for i, j := range second {
					j.Reset(len(first) + i)
				}
			} else {
				second = build(s, len(first))
			}
			submit(second)
			return s, second
		}
		reusedSys, reused := run(true)
		freshSys, fresh := run(false)

		for i, j := range reused {
			k := fresh[i]
			if !j.Done() || !k.Done() {
				t.Fatalf("seed %d: job %d incomplete (reused %v, fresh %v)", seed, j.ID, j.Done(), k.Done())
			}
			if j.ID != k.ID || j.QueryID != k.QueryID || j.SubmittedAt != k.SubmittedAt || j.FinishedAt != k.FinishedAt {
				t.Fatalf("seed %d: reused job id %d query %d [%v, %v], fresh id %d query %d [%v, %v]", seed,
					j.ID, j.QueryID, j.SubmittedAt, j.FinishedAt, k.ID, k.QueryID, k.SubmittedAt, k.FinishedAt)
			}
			for x, n := range j.Nodes {
				m := k.Nodes[x]
				if n.ReadyAt != m.ReadyAt || n.DispatchedAt != m.DispatchedAt || n.CompletedAt != m.CompletedAt ||
					n.DetectedAt != m.DetectedAt || n.Instance != m.Instance || n.Polls != m.Polls {
					t.Fatalf("seed %d: job %d node %d reused %+v, fresh %+v", seed, j.ID, x, *n, *m)
				}
			}
		}
		if a, b := reusedSys.GAM().Stats(), freshSys.GAM().Stats(); a != b {
			t.Fatalf("seed %d: GAM stats reused %+v, fresh %+v", seed, a, b)
		}
		a, b := reusedSys.GAM().SpanLog().Spans(), freshSys.GAM().SpanLog().Spans()
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d spans reused, %d fresh", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: span %d reused %+v, fresh %+v", seed, i, a[i], b[i])
			}
		}
	})
}
