package core

import (
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/fpga"
	"repro/internal/sim"
	"repro/internal/storage"
)

func newSystem(t *testing.T, cfg config.SystemConfig) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func lookup(t *testing.T, s *System, name string) *fpga.Template {
	t.Helper()
	k, err := s.Registry().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// pipelineJob builds one CBIR-shaped job: FE on-chip → SL on near-memory
// (one task per instance) → RR on near-storage (one per instance).
func pipelineJob(t *testing.T, s *System, id int) *Job {
	t.Helper()
	j := NewJob(id)
	fe := j.AddTask(accel.Task{
		Name: "fe", Stage: "FeatureExtraction",
		Kernel: lookup(t, s, "CNN-VU9P"),
		MACs:   247.5e9, Source: accel.SourceSPM,
	}, accel.OnChip)
	fe.OutBytes = 6144 // feature batch broadcast

	nm := s.InstanceCount(accel.NearMemory)
	slNodes := make([]*TaskNode, 0, nm)
	for i := 0; i < nm; i++ {
		sl := j.AddTask(accel.Task{
			Name: "sl", Stage: "ShortlistRetrieval",
			Kernel: lookup(t, s, "GEMM-ZCU9"),
			MACs:   1.55e6 / float64(nm), Bytes: int64(2.2e9) / int64(nm),
			Source: accel.SourceLocalDIMM,
		}, accel.NearMemory, fe)
		sl.Pin = i
		sl.OutBytes = 1024
		slNodes = append(slNodes, sl)
	}

	ns := s.InstanceCount(accel.NearStorage)
	for i := 0; i < ns; i++ {
		rr := j.AddTask(accel.Task{
			Name: "rr", Stage: "Rerank",
			Kernel: lookup(t, s, "KNN-ZCU9"),
			MACs:   614e6 / float64(ns), Bytes: int64(2.46e9) / int64(ns),
			Source: accel.SourceSSD, Pattern: storage.Sequential,
		}, accel.NearStorage, slNodes...)
		rr.Pin = i
		rr.OutBytes = 1280
	}
	return j
}

func TestSingleOnChipJob(t *testing.T) {
	s := newSystem(t, config.Default())
	j := NewJob(1)
	j.AddTask(accel.Task{
		Name: "fe", Stage: "FE", Kernel: lookup(t, s, "CNN-VU9P"),
		MACs: 247.5e9, Source: accel.SourceSPM,
	}, accel.OnChip)
	if err := s.GAM().Submit(j); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !j.Done() {
		t.Fatal("job did not complete")
	}
	ms := j.Latency().Milliseconds()
	if ms < 100 || ms > 125 {
		t.Errorf("single FE job latency = %.1f ms, want ~111", ms)
	}
	st := s.GAM().Stats()
	if st.JobsCompleted != 1 || st.TasksDispatched != 1 || st.Interrupts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.StatusPolls != 0 {
		t.Errorf("on-chip task was polled %d times; should use coherent completion", st.StatusPolls)
	}
}

func TestPipelineJobRespectsDependencies(t *testing.T) {
	s := newSystem(t, config.Default())
	j := pipelineJob(t, s, 1)
	if err := s.GAM().Submit(j); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !j.Done() {
		t.Fatal("job did not complete")
	}
	var fe, sl, rr *TaskNode
	for _, n := range j.Nodes {
		switch n.Spec.Name {
		case "fe":
			fe = n
		case "sl":
			if sl == nil {
				sl = n
			}
		case "rr":
			if rr == nil {
				rr = n
			}
		}
	}
	if sl.DispatchedAt < fe.CompletedAt {
		t.Errorf("SL dispatched at %v before FE completed at %v", sl.DispatchedAt, fe.CompletedAt)
	}
	if rr.DispatchedAt < sl.CompletedAt {
		t.Errorf("RR dispatched at %v before SL completed at %v", rr.DispatchedAt, sl.CompletedAt)
	}
	// Latency = FE (~111ms) + SL (~31ms) + RR (~103ms) + overheads ≈ 250ms.
	ms := j.Latency().Milliseconds()
	if ms < 220 || ms > 300 {
		t.Errorf("pipeline latency = %.1f ms, want ~250", ms)
	}
}

func TestNearLevelsArePolled(t *testing.T) {
	cfg := config.Default()
	cfg.Storage.GatherGrainBytes = cfg.Storage.PageBytes // IOPS-bound gather
	s := newSystem(t, cfg)
	j := NewJob(1)
	// A near-storage task whose data-path time far exceeds the kernel
	// estimate (random pattern hits the IOPS limit): the GAM must poll
	// multiple times and detect completion after the fact.
	n := j.AddTask(accel.Task{
		Name: "rr", Stage: "RR", Kernel: lookup(t, s, "KNN-ZCU9"),
		Bytes: 1e9, Source: accel.SourceSSD, Pattern: storage.RandomPages,
	}, accel.NearStorage)
	if err := s.GAM().Submit(j); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if n.Polls < 2 {
		t.Errorf("polls = %d, want >= 2 (estimate undershoots contended reality)", n.Polls)
	}
	if n.DetectedAt < n.CompletedAt {
		t.Errorf("detected at %v before completion %v", n.DetectedAt, n.CompletedAt)
	}
	if s.GAM().Stats().StatusPolls != uint64(n.Polls) {
		t.Errorf("stats polls %d != node polls %d", s.GAM().Stats().StatusPolls, n.Polls)
	}
}

func TestCrossJobPipeliningImprovesThroughput(t *testing.T) {
	const jobs = 6
	run := func(pipelined bool) sim.Time {
		cfg := config.Default()
		cfg.GAM.CrossJobPipelining = pipelined
		s := newSystem(t, cfg)
		var last *Job
		for i := 0; i < jobs; i++ {
			j := pipelineJob(t, s, i)
			if err := s.GAM().Submit(j); err != nil {
				t.Fatal(err)
			}
			last = j
		}
		s.Run()
		if !last.Done() {
			t.Fatal("last job incomplete")
		}
		return last.FinishedAt
	}
	serial := run(false)
	pipelined := run(true)
	if pipelined >= serial {
		t.Fatalf("pipelining did not help: %v vs %v", pipelined, serial)
	}
	speedup := float64(serial) / float64(pipelined)
	// Stage times ~111/31/103 ms: pipelined steady state is bounded by the
	// ~111 ms stage, serial by the ~250 ms sum.
	if speedup < 1.5 {
		t.Errorf("cross-job pipelining speedup = %.2f, want >= 1.5", speedup)
	}
	// Steady-state period must approach the longest stage.
	period := float64(pipelined) / float64(jobs)
	if period > float64(150*sim.Millisecond) {
		t.Errorf("pipelined period = %.1f ms/job, want near the ~111 ms bottleneck stage",
			period/float64(sim.Millisecond))
	}
}

// doneFunc adapts a function to DoneHandler.
type doneFunc func(*Job)

func (f doneFunc) JobDone(j *Job, _ uint64) { f(j) }

// TestGAMReleasesFinishedJobs: the GAM keeps no finished job graph
// reachable. With cross-job pipelining on it keeps no job list at all;
// with it off, the gate still runs jobs strictly in submission order while
// its list holds only the jobs that have not finished.
func TestGAMReleasesFinishedJobs(t *testing.T) {
	const jobs = 4
	for _, pipelined := range []bool{true, false} {
		cfg := config.Default()
		cfg.GAM.CrossJobPipelining = pipelined
		s := newSystem(t, cfg)
		g := s.GAM()
		var submitted, finished []*Job
		for i := 0; i < jobs; i++ {
			j := pipelineJob(t, s, i)
			j.OnDone(doneFunc(func(j *Job) {
				finished = append(finished, j)
				// The finishing job has left the gate list before its
				// handler runs; everything still on it is open.
				for _, open := range g.jobs {
					if open == j {
						t.Errorf("job %d finished but is still on the gate list", j.ID)
					}
					if open.Done() {
						t.Errorf("gate list keeps finished job %d", open.ID)
					}
				}
			}), 0)
			if err := g.Submit(j); err != nil {
				t.Fatal(err)
			}
			submitted = append(submitted, j)
		}
		s.Run()
		if len(finished) != jobs {
			t.Fatalf("pipelined=%v: %d of %d jobs finished", pipelined, len(finished), jobs)
		}
		if len(g.jobs) != 0 {
			t.Errorf("pipelined=%v: GAM still holds %d jobs after the run", pipelined, len(g.jobs))
		}
		if pipelined {
			continue
		}
		for i, j := range finished {
			if j != submitted[i] {
				t.Fatalf("gate finished job %d at position %d", j.ID, i)
			}
			if i == 0 {
				continue
			}
			if first, _ := j.FirstDispatch(); first < submitted[i-1].FinishedAt {
				t.Errorf("job %d dispatched at %v, before job %d finished at %v",
					j.ID, first, submitted[i-1].ID, submitted[i-1].FinishedAt)
			}
		}
	}
}

// TestGateKeepsOrderUnderReuse: with cross-job pipelining off, a done
// handler that resets its job and resubmits it in the same instant queues
// it behind the job already waiting at the gate. The finished job must have
// left the gate list before the handler runs, or its reset would make it
// look like the oldest open job and let it jump the queue.
func TestGateKeepsOrderUnderReuse(t *testing.T) {
	cfg := config.Default()
	cfg.GAM.CrossJobPipelining = false
	s := newSystem(t, cfg)
	g := s.GAM()
	reused, waiting := pipelineJob(t, s, 0), pipelineJob(t, s, 1)
	var firstFinish sim.Time
	reused.OnDone(doneFunc(func(j *Job) {
		firstFinish = j.FinishedAt
		j.Reset(2)
		if err := g.Submit(j); err != nil {
			t.Error(err)
		}
	}), 0)
	for _, j := range []*Job{reused, waiting} {
		if err := g.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if !reused.Done() || !waiting.Done() {
		t.Fatalf("jobs incomplete: resubmitted %v, waiting %v", reused.Done(), waiting.Done())
	}
	if reused.SubmittedAt != firstFinish {
		t.Fatalf("job resubmitted at %v, want its finish instant %v", reused.SubmittedAt, firstFinish)
	}
	wait, _ := waiting.FirstDispatch()
	again, _ := reused.FirstDispatch()
	if again < waiting.FinishedAt || wait > again {
		t.Errorf("resubmitted job dispatched at %v, ahead of the waiting job (dispatched %v, finished %v)",
			again, wait, waiting.FinishedAt)
	}
}

// TestJobResetPanicsWhileRunning: resetting a submitted job before it
// finishes would corrupt the GAM's view of it, so Reset panics.
func TestJobResetPanicsWhileRunning(t *testing.T) {
	s := newSystem(t, config.Default())
	j := pipelineJob(t, s, 1)
	if err := s.GAM().Submit(j); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a running job did not panic")
		}
	}()
	j.Reset(2)
}

func TestSubmitValidation(t *testing.T) {
	s := newSystem(t, config.Default().WithInstances(1, 0, 0))
	empty := NewJob(1)
	if err := s.GAM().Submit(empty); err == nil {
		t.Error("empty job accepted")
	}
	j := NewJob(2)
	j.AddTask(accel.Task{Name: "x", Stage: "s", Kernel: lookup(t, s, "GEMM-ZCU9"), Bytes: 100,
		Source: accel.SourceLocalDIMM}, accel.NearMemory)
	if err := s.GAM().Submit(j); err == nil {
		t.Error("job targeting unpopulated level accepted")
	}
	j2 := NewJob(3)
	n := j2.AddTask(accel.Task{Name: "y", Stage: "s", Kernel: lookup(t, s, "CNN-VU9P"),
		MACs: 1e6, Source: accel.SourceSPM}, accel.OnChip)
	n.Pin = 5
	if err := s.GAM().Submit(j2); err == nil {
		t.Error("bad pin accepted")
	}
}

func TestJobValidateDetectsCycle(t *testing.T) {
	s := newSystem(t, config.Default())
	j := NewJob(1)
	k := lookup(t, s, "CNN-VU9P")
	a := j.AddTask(accel.Task{Name: "a", Stage: "s", Kernel: k, MACs: 1, Source: accel.SourceSPM}, accel.OnChip)
	b := j.AddTask(accel.Task{Name: "b", Stage: "s", Kernel: k, MACs: 1, Source: accel.SourceSPM}, accel.OnChip, a)
	// Manufacture a cycle a→b→a.
	b.dependents = append(b.dependents, a)
	a.deps++
	if err := j.Validate(); err == nil {
		t.Error("cyclic job validated")
	}
}

func TestParallelTasksShareInstances(t *testing.T) {
	// 8 independent near-memory tasks on 4 instances: two waves.
	cfg := config.Default().WithInstances(1, 4, 4)
	s := newSystem(t, cfg)
	j := NewJob(1)
	for i := 0; i < 8; i++ {
		j.AddTask(accel.Task{
			Name: "t", Stage: "s", Kernel: lookup(t, s, "GEMM-ZCU9"),
			Bytes: 180e6, Source: accel.SourceLocalDIMM,
		}, accel.NearMemory)
	}
	if err := s.GAM().Submit(j); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !j.Done() {
		t.Fatal("job incomplete")
	}
	// Each task streams 180 MB at 18 GB/s = 10 ms; 8 tasks on 4 devices
	// ≈ 2 waves ≈ 20 ms + polling overhead. Well under 4 waves.
	ms := j.Latency().Milliseconds()
	if ms < 19 || ms > 35 {
		t.Errorf("8 tasks / 4 instances = %.1f ms, want ~21-30", ms)
	}
	// Instances used: all 4.
	used := map[string]bool{}
	for _, n := range j.Nodes {
		used[n.Instance] = true
	}
	if len(used) != 4 {
		t.Errorf("used %d instances, want 4", len(used))
	}
}

func TestProgressTableDuringRun(t *testing.T) {
	s := newSystem(t, config.Default())
	j := pipelineJob(t, s, 1)
	if err := s.GAM().Submit(j); err != nil {
		t.Fatal(err)
	}
	var sawRunning bool
	s.Engine().Schedule(50*sim.Millisecond, func() {
		for _, e := range s.GAM().Progress() {
			if e.State == NodeRunning && e.Task == "fe" {
				sawRunning = true
			}
		}
	})
	s.Run()
	if !sawRunning {
		t.Error("progress table never showed the FE task running at t=50ms")
	}
}

func TestTransferPathsChargeComponents(t *testing.T) {
	cases := []struct {
		name     string
		src, dst accel.Level
		want     []energy.Component
	}{
		{"cpu→nearmem", accel.CPU, accel.NearMemory, []energy.Component{energy.DRAM, energy.MCInterconnect}},
		{"cpu→nearstor", accel.CPU, accel.NearStorage, []energy.Component{energy.DRAM, energy.PCIe}},
		{"nearmem→cpu", accel.NearMemory, accel.CPU, []energy.Component{energy.DRAM, energy.MCInterconnect}},
		{"nearmem→nearstor", accel.NearMemory, accel.NearStorage, []energy.Component{energy.DRAM, energy.PCIe}},
		{"nearstor→cpu", accel.NearStorage, accel.CPU, []energy.Component{energy.PCIe, energy.DRAM}},
		{"nearmem→nearmem", accel.NearMemory, accel.NearMemory, []energy.Component{energy.DRAM, energy.MCInterconnect}},
		{"onchip→cpu", accel.OnChip, accel.CPU, []energy.Component{energy.Cache}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSystem(t, config.Default())
			done := s.Transfer(tc.src, tc.dst, 0, 1<<20, "x")
			if done <= 0 {
				t.Error("transfer completed instantly")
			}
			for _, c := range tc.want {
				if s.Meter().Component(c) <= 0 {
					t.Errorf("no %v energy charged", c)
				}
			}
		})
	}
	// Zero bytes and same-level transfers are free.
	s := newSystem(t, config.Default())
	if d := s.Transfer(accel.CPU, accel.NearMemory, 0, 0, "x"); d != s.Engine().Now() {
		t.Error("zero-byte transfer took time")
	}
	if d := s.Transfer(accel.CPU, accel.CPU, 0, 100, "x"); d != s.Engine().Now() {
		t.Error("same-level transfer took time")
	}
}

func TestLoadFixedBuffer(t *testing.T) {
	s := newSystem(t, config.Default())
	if d := s.LoadFixedBuffer(accel.NearStorage, 0, 1<<30, "Setup"); d != s.Engine().Now() {
		t.Error("SSD-resident buffer load should be free")
	}
	d := s.LoadFixedBuffer(accel.NearMemory, 0, 1<<30, "Setup")
	if d <= s.Engine().Now() {
		t.Error("near-memory buffer load took no time")
	}
	if s.Meter().Component(energy.SSD) <= 0 {
		t.Error("buffer load charged no SSD energy")
	}
	d2 := s.LoadFixedBuffer(accel.OnChip, 0, 1<<20, "Setup")
	if d2 <= 0 {
		t.Error("on-chip buffer load took no time")
	}
}

func TestBackgroundEnergy(t *testing.T) {
	s := newSystem(t, config.Default())
	s.Background("idle", sim.Second)
	if s.Meter().Component(energy.DRAM) <= 0 || s.Meter().Component(energy.SSD) <= 0 {
		t.Error("background energy not charged")
	}
}

// Accelerators serves each level's instances in construction order, and
// nil for the CPU or a level that does not exist.
func TestAcceleratorsTable(t *testing.T) {
	s := newSystem(t, config.Default().WithInstances(1, 2, 3))
	for l, want := range map[accel.Level][]string{
		accel.OnChip:      {"onchip0"},
		accel.NearMemory:  {"nm0", "nm1"},
		accel.NearStorage: {"ns0", "ns1", "ns2"},
	} {
		var got []string
		for _, a := range s.Accelerators(l) {
			got = append(got, a.Name())
		}
		if strings.Join(got, ",") != strings.Join(want, ",") || s.InstanceCount(l) != len(want) {
			t.Errorf("Accelerators(%v) = %v (count %d), want %v", l, got, s.InstanceCount(l), want)
		}
	}
	for _, l := range []accel.Level{accel.CPU, accel.Level(9), accel.Level(-1)} {
		if got := s.Accelerators(l); got != nil {
			t.Errorf("Accelerators(%v) = %v, want nil", l, got)
		}
	}
}

func TestNodeStateStrings(t *testing.T) {
	for st, want := range map[NodeState]string{
		NodePending: "pending", NodeReady: "ready", NodeRunning: "running", NodeDone: "done",
	} {
		if st.String() != want {
			t.Errorf("%d = %q", int(st), st.String())
		}
	}
	if NodeState(9).String() == "" {
		t.Error("unknown state empty")
	}
}

func TestSnapshotAfterPipeline(t *testing.T) {
	s := newSystem(t, config.Default())
	j := pipelineJob(t, s, 1)
	if err := s.GAM().Submit(j); err != nil {
		t.Fatal(err)
	}
	s.Run()
	entries := s.Snapshot()
	byName := map[string]string{}
	for _, e := range entries {
		byName[e.Name] = e.Value
	}
	for _, want := range []string{
		"gam.jobs_completed", "gam.status_polls", "mem.aimbus.bytes",
		"ssd.host_link.bytes", "energy.total_J", "acc.onchip0.tasks",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("snapshot missing %s", want)
		}
	}
	if byName["gam.jobs_completed"] != "1" {
		t.Errorf("jobs_completed = %s", byName["gam.jobs_completed"])
	}
	var sb strings.Builder
	if err := s.WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "energy.total_J") {
		t.Error("rendered snapshot missing energy line")
	}
	// Utilisation: the pipeline kept the on-chip accelerator busy for the
	// FE stage; utilisation must be in (0, 1].
	if u := s.Utilization(accel.OnChip); u <= 0 || u > 1 {
		t.Errorf("on-chip utilisation = %v", u)
	}
	if u := s.Utilization(accel.CPU); u != 0 {
		t.Errorf("CPU utilisation = %v, want 0 (no instances)", u)
	}
}
