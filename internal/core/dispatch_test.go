package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestDispatchTimelinesPinned pins the GAM's dispatch decisions under deep
// backlogs. Each seed streams random jobs in faster than the instances
// serve them: pinned and unpinned tasks on all three levels, two
// priorities, job ids that do not follow arrival order, and some inputs
// stamped to land in the future (NotBefore). Each case runs four seeds with
// the job gate on or off and spans on or off, and digests every node's
// ready, dispatch and detection times and instance, the engine's event
// count, the GAM counters and the span log. A change to which node goes to
// which instance, or to when any event is scheduled, fails here.
func TestDispatchTimelinesPinned(t *testing.T) {
	cases := []struct {
		name        string
		gate, spans bool
		want        string
	}{
		{"pipelined", false, false, "6a3959f66e846c6e"},
		{"pipelined-spans", false, true, "f40169cb439d1673"},
		{"gated", true, false, "86ece6e702f7f200"},
		{"gated-spans", true, true, "56fa871c45b71f1e"},
	}
	for _, c := range cases {
		h := sha256.New()
		for seed := int64(1); seed <= 4; seed++ {
			runDeepBacklog(t, h, seed, c.gate, c.spans)
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.want {
			t.Errorf("%s: dispatch digest %s, want %s", c.name, got, c.want)
		}
	}
}

// runDeepBacklog runs one seeded deep-backlog scenario and writes its
// digest to h.
func runDeepBacklog(t *testing.T, h hash.Hash, seed int64, gate, spans bool) {
	t.Helper()
	const jobs = 40
	rng := rand.New(rand.NewSource(seed))
	cfg := config.Default().WithInstances(1+rng.Intn(2), 2+rng.Intn(3), 2+rng.Intn(3))
	cfg.GAM.CrossJobPipelining = !gate
	s := newSystem(t, cfg)
	g := s.GAM()
	if spans {
		g.SetSpanLog(metrics.NewSpanLog())
	}
	eng := s.Engine()
	ids := rng.Perm(jobs)
	all := make([]*Job, jobs)
	deepest := 0
	var at sim.Time
	for i := range all {
		j := buildRandomJob(t, s, ids[i], rng, 2+rng.Intn(9))
		j.Priority = rng.Intn(2)
		for _, n := range j.Nodes {
			if rng.Float64() < 0.15 {
				n.NotBefore = at + sim.Time(rng.Int63n(int64(20*sim.Millisecond)))
			}
		}
		all[i] = j
		eng.At(at, func() {
			if err := g.Submit(j); err != nil {
				t.Fatalf("seed %d: submit job %d: %v", seed, j.ID, err)
			}
			queued := 0
			for _, q := range g.readyQ {
				queued += len(q)
			}
			deepest = max(deepest, queued)
		})
		at += sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
	}
	s.Run()
	if deepest < 40 {
		t.Fatalf("seed %d: deepest backlog %d ready tasks, want at least 40", seed, deepest)
	}
	for _, j := range all {
		if !j.Done() {
			t.Fatalf("seed %d: job %d incomplete", seed, j.ID)
		}
		for _, n := range j.Nodes {
			fmt.Fprintf(h, "%d|%d|%d|%d|%s|%d\n", j.ID, n.ReadyAt, n.DispatchedAt, n.DetectedAt, n.Instance, n.Polls)
		}
	}
	fmt.Fprintf(h, "%d|%+v\n", eng.Executed(), g.Stats())
	for _, sp := range g.SpanLog().Spans() {
		fmt.Fprintf(h, "%+v\n", sp)
	}
}

// deepQueue keeps a fixed number of single-task jobs in flight on one
// level: each job that finishes is reset and submitted again until total
// jobs have been submitted.
type deepQueue struct {
	g                *GAM
	submitted, total int
}

func (q *deepQueue) JobDone(j *Job, _ uint64) {
	if q.submitted == q.total {
		return
	}
	j.Reset(q.submitted)
	q.submit(j)
}

func (q *deepQueue) submit(j *Job) {
	j.OnDone(q, 0)
	if err := q.g.Submit(j); err != nil {
		panic(err)
	}
	q.submitted++
}

// BenchmarkGAMDeepQueue measures the GAM's cost per dispatched task with a
// deep ready queue: 1024 identical on-chip jobs stay in flight on four
// instances, so every dispatch round finds about a thousand queued tasks
// and at most four idle instances. One op is one dispatched task. The
// tasks finish in lock step, four per wave, and each wave costs one round
// after its completions and one after the resubmissions, so the engine
// must execute exactly 3 events per task plus 2 rounds per wave and the
// opening round.
func BenchmarkGAMDeepQueue(b *testing.B) {
	const (
		instances = 4
		inFlight  = 1024
	)
	s, err := NewSystem(config.Default().WithInstances(instances, 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	k, err := s.Registry().Lookup("CNN-VU9P")
	if err != nil {
		b.Fatal(err)
	}
	q := &deepQueue{g: s.GAM(), total: b.N}
	for i := 0; i < min(inFlight, b.N); i++ {
		j := NewJob(i)
		j.AddTask(accel.Task{Name: "t", Stage: "bench", Kernel: k, MACs: 1e9, Source: accel.SourceSPM}, accel.OnChip)
		q.submit(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	b.StopTimer()
	eng := s.Engine()
	if p := eng.Pending(); p != 0 {
		b.Fatalf("calendar not drained: %d events pending", p)
	}
	waves := (b.N + instances - 1) / instances
	if got, want := eng.Executed(), uint64(3*b.N+2*waves+1); got != want {
		b.Fatalf("executed %d events, want %d (runaway or dropped dispatch)", got, want)
	}
	if got := s.GAM().Stats().TasksDispatched; got != uint64(b.N) {
		b.Fatalf("dispatched %d tasks, want %d", got, b.N)
	}
}
