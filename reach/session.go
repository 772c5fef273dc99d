package reach

import (
	"fmt"
	"slices"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/sim"
)

// Deploy performs the ReACH configuration step (paper Fig. 6): it loads
// every fixed buffer into its level's memory region, charges the setup
// movement to the "Setup" stage, and advances simulated time past the
// deployment so subsequent batches measure steady state. Must be called
// once, after configuration and before the first Begin.
func (s *System) Deploy() error {
	if s.deployed {
		return fmt.Errorf("reach: system already deployed")
	}
	var latest sim.Time
	for i, b := range s.buffers {
		idx := b.Instance
		if idx < 0 {
			idx = i % max(1, s.sys.InstanceCount(b.Level.internal()))
		}
		if d := s.sys.LoadFixedBuffer(b.Level.internal(), idx, b.Size, "Setup"); d > latest {
			latest = d
		}
	}
	if latest > s.sys.Engine().Now() {
		s.sys.Engine().RunUntil(latest)
	}
	s.deployed = true
	return nil
}

// Job is one in-flight batch: the host-side view of a GAM job under
// construction (Begin → Enqueue/Execute → Commit) and, after Commit, a
// handle on its progress.
type Job struct {
	sys       *System
	j         *core.Job
	id        int
	committed bool

	nodesByACC map[*ACC][]*core.TaskNode
	hostInput  map[*Stream]int64 // host-enqueued payloads, transferred at Commit
}

// Begin opens a new batch job. Multiple jobs may be open/in flight at
// once; the GAM pipelines them (§II-D).
func (s *System) Begin() (*Job, error) {
	if !s.deployed {
		return nil, fmt.Errorf("reach: Deploy before Begin")
	}
	s.nextJob++
	return &Job{
		sys:        s,
		j:          core.NewJob(s.nextJob),
		id:         s.nextJob,
		nodesByACC: make(map[*ACC][]*core.TaskNode),
		hostInput:  make(map[*Stream]int64),
	}, nil
}

// SetPriority marks the batch for preferential GAM dispatch over
// lower-priority jobs contending for the same accelerators — the runtime
// resource-balancing knob of §III. Must be called before Commit.
func (b *Job) SetPriority(p int) error {
	if b.committed {
		return fmt.Errorf("reach: job %d already committed", b.id)
	}
	b.j.Priority = p
	return nil
}

// Enqueue pushes one element (of the stream's configured size) from the
// host into a CPU-sourced stream — Listing 3's Input.enqueue.
func (b *Job) Enqueue(st *Stream) error {
	if b.committed {
		return fmt.Errorf("reach: job %d already committed", b.id)
	}
	if st.Src != CPU {
		return fmt.Errorf("reach: stream %q source is %v; Enqueue is host-side", st.Name, st.Src)
	}
	b.hostInput[st] += st.Size
	return nil
}

// Execute appends one invocation of the accelerator to the job —
// Listing 3's acc.execute(threadId). Dependencies are inferred from the
// ACC's input streams: it waits for every producer of those streams that
// ran earlier in this job, or for the host enqueue when the stream comes
// from the CPU. Producers therefore execute before their consumers: an ACC
// that produces a stream an ACC already executed in this job reads is an
// error, since that consumer would not wait for it.
func (b *Job) Execute(a *ACC) error {
	if b.committed {
		return fmt.Errorf("reach: job %d already committed", b.id)
	}
	if a.sys != b.sys {
		return fmt.Errorf("reach: accelerator %s belongs to a different system", a.Name)
	}
	for _, arg := range a.args {
		st, ok := arg.arg.(*Stream)
		if !ok || !slices.Contains(st.producers, a) {
			continue
		}
		for _, c := range b.sys.accs {
			if len(b.nodesByACC[c]) > 0 && slices.Contains(c.inputStreams(), st) {
				return fmt.Errorf("reach: %s produces stream %q, which %s already read in job %d; execute producers first",
					a.Name, st.Name, c.Name, b.id)
			}
		}
	}
	var deps []*core.TaskNode
	for _, st := range a.inputStreams() {
		if st.Src == CPU {
			continue // handled via NotBefore at Commit
		}
		for _, producer := range st.producers {
			deps = append(deps, b.nodesByACC[producer]...)
		}
	}

	bytes := a.work.StreamBytes
	if bytes == 0 {
		bytes = a.fixedInputBytes()
	}
	outBytes := a.work.OutputBytes
	out := a.outputStream()
	if outBytes == 0 && out != nil {
		outBytes = out.Size
	}
	stage := a.stage()

	node := b.j.AddTask(accel.Task{
		Name:           a.Template,
		Stage:          stage,
		Kernel:         mustTemplate(a),
		MACs:           a.work.MACs,
		Bytes:          bytes,
		Source:         a.taskSource(),
		Pattern:        a.pattern(),
		RemoteFraction: a.work.RemoteFraction,
	}, a.Level.internal(), deps...)
	node.Pin = a.Instance
	node.OutBytes = outBytes
	if out != nil && out.Dst == CPU {
		node.SinkToHost = true
	}
	b.nodesByACC[a] = append(b.nodesByACC[a], node)
	return nil
}

// Broadcast validates a BroadCast stream's use in this job — Listing 3's
// Features.broadcast(). Duplication to every consumer instance is handled
// by the GAM when the producing tasks complete.
func (b *Job) Broadcast(st *Stream) error {
	if st.Type != BroadCast {
		return fmt.Errorf("reach: stream %q is %v, not BroadCast", st.Name, st.Type)
	}
	return nil
}

// Collect validates a Collect stream's use in this job — Listing 3's
// Result.collect(). The gather to the destination happens when the
// producing tasks complete.
func (b *Job) Collect(st *Stream) error {
	if st.Type != Collect {
		return fmt.Errorf("reach: stream %q is %v, not Collect", st.Name, st.Type)
	}
	return nil
}

// Commit submits the job to the GAM. Host-enqueued inputs are DMAed to
// their destination level first, in stream-creation order; consuming tasks
// carry a matching NotBefore.
func (b *Job) Commit() error {
	if b.committed {
		return fmt.Errorf("reach: job %d already committed", b.id)
	}
	b.committed = true
	// Transfer host inputs and stamp NotBefore on the consumers.
	for _, st := range b.sys.streams {
		bytes := b.hostInput[st]
		if bytes == 0 {
			continue
		}
		done := b.sys.sys.Transfer(accel.CPU, st.Dst.internal(), 0, bytes, "Input")
		for a, nodes := range b.nodesByACC {
			if a.Level != st.Dst {
				continue
			}
			for _, in := range a.inputStreams() {
				if in == st {
					for _, n := range nodes {
						if done > n.NotBefore {
							n.NotBefore = done
						}
					}
				}
			}
		}
	}
	return b.sys.sys.GAM().Submit(b.j)
}

// Done reports whether the batch completed (valid after Run).
func (b *Job) Done() bool { return b.j.Done() }

// Latency reports submit-to-interrupt time (zero until done).
func (b *Job) Latency() sim.Time { return b.j.Latency() }

// FinishedAt reports the completion time (zero until done).
func (b *Job) FinishedAt() sim.Time { return b.j.FinishedAt }

// stage produces the energy-attribution label for an ACC.
func (a *ACC) stage() string {
	if a.work.Stage != "" {
		return a.work.Stage
	}
	return a.Template
}

func mustTemplate(a *ACC) *fpga.Template {
	t, err := a.sys.sys.Registry().Lookup(a.Template)
	if err != nil {
		// RegisterAcc already validated the name; a failure here means
		// the registry was mutated behind our back.
		panic(err)
	}
	return t
}
