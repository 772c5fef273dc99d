package core

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/storage"
)

// tracedJob builds a two-level chain (near-memory → near-storage → host
// collect) whose stage label is unique to the job, so cross-query interval
// leaks are detectable.
func tracedJob(t *testing.T, s *System, id int) *Job {
	t.Helper()
	j := NewJob(id)
	stage := fmt.Sprintf("stage%d", id)
	a := j.AddTask(accel.Task{
		Name: "a", Stage: stage, Kernel: lookup(t, s, "GEMM-ZCU9"),
		MACs: 2e6, Bytes: 1 << 22, Source: accel.SourceLocalDIMM,
	}, accel.NearMemory)
	a.OutBytes = 4096
	b := j.AddTask(accel.Task{
		Name: "b", Stage: stage, Kernel: lookup(t, s, "KNN-ZCU9"),
		MACs: 1e6, Bytes: 1 << 22, Source: accel.SourceSSD,
		Pattern: storage.Sequential,
	}, accel.NearStorage, a)
	b.OutBytes = 2048
	b.SinkToHost = true
	return j
}

// TestQTraceDisabledZeroAlloc: with no query log attached (the default),
// the per-interval hook is a single nil check — zero allocations, same
// standard as the span hooks (TestStreamPassDisabledZeroAlloc).
func TestQTraceDisabledZeroAlloc(t *testing.T) {
	s := newSystem(t, config.Default())
	g := s.GAM()
	if g.QueryLog() != nil {
		t.Fatal("query log attached by default")
	}
	j := NewJob(0)
	allocs := testing.AllocsPerRun(200, func() {
		g.qtraceAdd(j, qtrace.PhaseExec, "SL", "NearMem", "nearmem0", 0, 1)
	})
	if allocs > 0 {
		t.Fatalf("qtraceAdd with tracing disabled allocates %.1f/op, want 0", allocs)
	}
}

// TestQueryIDsAssignedWithoutLog: QueryIDs are monotonic per GAM in
// submission order whether or not a log is attached, so traces from a log
// attached mid-run still line up.
func TestQueryIDsAssignedWithoutLog(t *testing.T) {
	s := newSystem(t, config.Default())
	for i := 0; i < 3; i++ {
		j := tracedJob(t, s, 10+i)
		if err := s.GAM().Submit(j); err != nil {
			t.Fatal(err)
		}
		if j.QueryID != i {
			t.Fatalf("job %d got QueryID %d, want %d", j.ID, j.QueryID, i)
		}
	}
}

// TestQueryTraceNesting: every recorded interval of a query sits inside
// that query's [arrival, completion] window, and no query's timeline ever
// references another query's stages. The per-job-unique stage labels make
// a cross-query leak observable.
func TestQueryTraceNesting(t *testing.T) {
	s := newSystem(t, config.Default())
	log := qtrace.NewLog(qtrace.Options{})
	s.GAM().SetQueryLog(log)

	jobs := make([]*Job, 3)
	for i := range jobs {
		jobs[i] = tracedJob(t, s, 100+i)
		if err := s.GAM().Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()

	if n := log.Latencies().Count(); n != 3 {
		t.Fatalf("completions = %d, want 3", n)
	}
	for i, j := range jobs {
		q := log.Query(j.QueryID)
		if q == nil || !q.Completed() {
			t.Fatalf("query %d missing or incomplete", j.QueryID)
		}
		if q.Job != j.ID {
			t.Fatalf("query %d maps to job %d, want %d", q.ID, q.Job, j.ID)
		}
		if q.Arrival != j.SubmittedAt || q.Done != j.FinishedAt {
			t.Fatalf("query %d window [%v,%v] != job window [%v,%v]",
				q.ID, q.Arrival, q.Done, j.SubmittedAt, j.FinishedAt)
		}
		wantStage := fmt.Sprintf("stage%d", 100+i)
		phases := map[string]bool{}
		for _, iv := range q.Intervals {
			if iv.End < iv.Start {
				t.Errorf("query %d: interval %+v ends before it starts", q.ID, iv)
			}
			if iv.Start < q.Arrival || iv.End > q.Done {
				t.Errorf("query %d: interval %+v outside [%v,%v]",
					q.ID, iv, q.Arrival, q.Done)
			}
			if iv.Stage != wantStage {
				t.Errorf("query %d: interval references stage %q, want %q",
					q.ID, iv.Stage, wantStage)
			}
			phases[iv.Phase] = true
		}
		// Two dispatches, two executions, a DMA to the dependent plus the
		// host collect, and status polling at both non-coherent levels.
		for _, p := range []string{qtrace.PhaseQueue, qtrace.PhaseExec, qtrace.PhaseXfer, qtrace.PhasePollGap} {
			if !phases[p] {
				t.Errorf("query %d: no %s interval recorded", q.ID, p)
			}
		}
		if dom := q.Dominant(); dom.Share <= 0 || dom.Share > 1 {
			t.Errorf("query %d: dominant share %v out of (0,1]", q.ID, dom.Share)
		}
	}
}

// TestQTraceObserverEffectZero: attaching a query log must not change the
// simulation — identical job timings and control-plane stats with and
// without tracing.
func TestQTraceObserverEffectZero(t *testing.T) {
	run := func(traced bool) ([]*Job, GAMStats) {
		s := newSystem(t, config.Default())
		if traced {
			s.GAM().SetQueryLog(qtrace.NewLog(qtrace.Options{}))
		}
		jobs := make([]*Job, 3)
		for i := range jobs {
			jobs[i] = tracedJob(t, s, i)
			if err := s.GAM().Submit(jobs[i]); err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
		return jobs, s.GAM().Stats()
	}
	plain, plainStats := run(false)
	traced, tracedStats := run(true)
	for i := range plain {
		if plain[i].FinishedAt != traced[i].FinishedAt {
			t.Errorf("job %d finish: plain %v, traced %v",
				i, plain[i].FinishedAt, traced[i].FinishedAt)
		}
	}
	if plainStats != tracedStats {
		t.Errorf("stats diverge: plain %+v, traced %+v", plainStats, tracedStats)
	}
}
