package core

import (
	"fmt"
	"slices"

	"repro/internal/accel"
	"repro/internal/qtrace"
	"repro/internal/sim"
)

// NodeState tracks a task node through the GAM.
type NodeState int

const (
	// NodePending: dependencies outstanding.
	NodePending NodeState = iota
	// NodeReady: in the scheduling queue.
	NodeReady
	// NodeRunning: dispatched to a device.
	NodeRunning
	// NodeDone: completed and outputs forwarded.
	NodeDone
)

func (s NodeState) String() string {
	switch s {
	case NodePending:
		return "pending"
	case NodeReady:
		return "ready"
	case NodeRunning:
		return "running"
	case NodeDone:
		return "done"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// TaskNode is one schedulable task within a job: an accelerator task spec,
// its target compute level, and its dependencies. All nodes of a job share
// the job's software thread (the paper's task group).
type TaskNode struct {
	Spec  accel.Task
	Level accel.Level
	// Pin >= 0 forces a specific instance index at the level; -1 lets GAM
	// pick any idle instance.
	Pin int
	// OutBytes is the payload DMAed to each dependent on completion (a
	// stream enqueue). The transfer is charged once per dependent
	// (broadcast/collect duplication, §III-B).
	OutBytes int64
	// NotBefore delays dispatch until the given simulated time — used for
	// tasks whose host-side input (a CPU→level stream enqueue) is still in
	// flight. Set it before Submit: the GAM notes it when the node becomes
	// ready.
	NotBefore sim.Time
	// SinkToHost marks a terminal node whose OutBytes are collected back
	// to the CPU before the job can complete (a Collect stream ending at
	// the host).
	SinkToHost bool

	job        *Job
	idx        int // position in job.Nodes
	deps       int
	dependents []*TaskNode
	state      NodeState

	// Event-dispatch state, filled in by the GAM so the node can serve as
	// its own preallocated sim.Handler (no per-event closures): the owning
	// GAM, the device the node was dispatched to and its index among the
	// level's instances, and the wait estimate the device returned at
	// dispatch time.
	gam      *GAM
	acc      *accel.Accelerator
	slot     int
	estimate sim.Time

	// blockCause remembers why the latest dispatch pass skipped this ready
	// node — the cause tag the eventual dispatch span and query-trace queue
	// interval carry. Only written when span or query instrumentation is
	// enabled.
	blockCause string

	// Timeline, filled in by the GAM.
	ReadyAt      sim.Time
	DispatchedAt sim.Time
	CompletedAt  sim.Time // device-side completion
	DetectedAt   sim.Time // GAM learns of completion (poll / interrupt)
	Instance     string   // device the task ran on
	Polls        int      // status packets it took to observe completion
}

// State reports the node's scheduling state.
func (n *TaskNode) State() NodeState { return n.state }

// Dependents lists the nodes added with n as a dependency, in insertion
// order. The slice is the job's own; callers must not modify it.
func (n *TaskNode) Dependents() []*TaskNode { return n.dependents }

// Job is one request from the host application (one query batch in the
// case study): a DAG of task nodes the GAM decomposes and schedules.
type Job struct {
	ID    int
	Nodes []*TaskNode
	// QueryID is the GAM-assigned end-to-end tracing identity: monotonic per
	// GAM in submission order, set by Submit whether or not a query log is
	// attached. Unlike ID (caller-chosen, possibly reused across experiment
	// repetitions) it is unique within a system's lifetime.
	QueryID int
	// Priority orders dispatch between jobs contending for the same
	// level: higher first, ties by submission order. The knob behind
	// §III's "allow GAM to balance the hardware resources during
	// runtime" in multi-tenant deployments.
	Priority int

	remaining int
	// SubmittedAt/FinishedAt bound the job's latency.
	SubmittedAt sim.Time
	FinishedAt  sim.Time
	done        bool
	onDone      DoneHandler
	doneArg     uint64
	gam         *GAM // owning GAM, set at Submit; the job is its own completion-event handler
}

// DoneHandler is notified when a job finishes. Like a sim.Handler, one
// long-lived implementation serves many jobs and tells them apart by the
// arg registered with OnDone, so completion allocates no closure.
type DoneHandler interface {
	JobDone(j *Job, arg uint64)
}

// NewJob creates an empty job.
func NewJob(id int) *Job {
	return &Job{ID: id}
}

// AddTask appends a node with dependencies on the given prior nodes (all
// must belong to this job). Dependencies can only name nodes already added,
// so insertion order is a topological order of the job's graph.
func (j *Job) AddTask(spec accel.Task, level accel.Level, deps ...*TaskNode) *TaskNode {
	n := &TaskNode{
		Spec:  spec,
		Level: level,
		Pin:   -1,
		job:   j,
		idx:   len(j.Nodes),
	}
	for _, d := range deps {
		if d == nil {
			continue
		}
		if d.job != j {
			panic("core: cross-job dependency")
		}
		d.dependents = append(d.dependents, n)
		n.deps++
	}
	j.Nodes = append(j.Nodes, n)
	j.remaining++
	return n
}

// Done reports whether every node completed.
func (j *Job) Done() bool { return j.done }

// Latency reports submission-to-finish time (zero before completion).
func (j *Job) Latency() sim.Time {
	if !j.done {
		return 0
	}
	return j.FinishedAt - j.SubmittedAt
}

// Segment is one slice of a job's critical path: Phase is
// qtrace.PhaseQueue, PhaseExec or PhaseXfer, over [Start, End).
type Segment struct {
	Phase      string
	Start, End sim.Time
}

// CriticalPath appends the finished job's critical path to dst as
// time-ordered segments that tile [SubmittedAt, FinishedAt]. The path is
// the chain of task nodes that determined the finish time: it starts at
// the last-detected node and walks back through each node's last-detected
// dependency, the one whose output delivery released it into the ready
// queue. Per chain node, ready-to-dispatch time is queue and
// dispatch-to-detection is exec; everything between them (the job's
// input, dependency DMA, the terminal host collect) is xfer. Zero-length
// segments are left out. Unlike the first dispatch alone, the path sees
// the contention on every chain node, which under saturation is where
// almost all of the waiting happens. Appends nothing before completion.
func (j *Job) CriticalPath(dst []Segment) []Segment {
	if !j.done {
		return dst
	}
	var n *TaskNode
	for _, c := range j.Nodes {
		if n == nil || c.DetectedAt > n.DetectedAt {
			n = c
		}
	}
	first := len(dst)
	end := j.FinishedAt
	for n != nil {
		dst = appendSegment(dst, qtrace.PhaseXfer, n.DetectedAt, end)
		dst = appendSegment(dst, qtrace.PhaseExec, n.DispatchedAt, n.DetectedAt)
		dst = appendSegment(dst, qtrace.PhaseQueue, n.ReadyAt, n.DispatchedAt)
		end = n.ReadyAt
		var pred *TaskNode
		for _, c := range j.Nodes {
			if c == n {
				continue
			}
			for _, d := range c.dependents {
				if d == n && (pred == nil || c.DetectedAt > pred.DetectedAt) {
					pred = c
				}
			}
		}
		n = pred
	}
	dst = appendSegment(dst, qtrace.PhaseXfer, j.SubmittedAt, end)
	slices.Reverse(dst[first:])
	return dst
}

// appendSegment appends [start, end) as a phase segment unless it is
// empty.
func appendSegment(dst []Segment, phase string, start, end sim.Time) []Segment {
	if end == start {
		return dst
	}
	return append(dst, Segment{Phase: phase, Start: start, End: end})
}

// OnDone registers h to be called with arg when the job finishes.
func (j *Job) OnDone(h DoneHandler, arg uint64) { j.onDone, j.doneArg = h, arg }

// Reset returns a finished (or never submitted) job to its pre-Submit
// state under a new id, so its graph can run again: the nodes, their task
// specs, pins, OutBytes and NotBefore, and the job's Priority are kept;
// run state, timelines and the done handler are cleared. Resetting a job
// that is still running is a bug and panics.
func (j *Job) Reset(id int) {
	if j.gam != nil && !j.done {
		panic(fmt.Sprintf("core: reset of job %d while it runs", j.ID))
	}
	*j = Job{ID: id, Nodes: j.Nodes, Priority: j.Priority, remaining: len(j.Nodes)}
	for _, n := range j.Nodes {
		n.deps = 0
	}
	for _, n := range j.Nodes {
		for _, d := range n.dependents {
			d.deps++
		}
		n.state = NodePending
		n.gam, n.acc, n.slot, n.estimate, n.blockCause = nil, nil, 0, 0, ""
		n.ReadyAt, n.DispatchedAt, n.CompletedAt, n.DetectedAt = 0, 0, 0, 0
		n.Instance, n.Polls = "", 0
	}
}

// Validate checks the job is non-empty, its task specs are valid and its
// graph is acyclic. AddTask numbers nodes in insertion order, which is
// topological, so the graph is acyclic exactly when every node sits at its
// own index and every dependency edge points forward. The check allocates
// nothing.
func (j *Job) Validate() error {
	if len(j.Nodes) == 0 {
		return fmt.Errorf("core: job %d has no tasks", j.ID)
	}
	for i, n := range j.Nodes {
		if err := n.Spec.Validate(); err != nil {
			return fmt.Errorf("core: job %d: %w", j.ID, err)
		}
		if n.job != j || n.idx != i {
			return fmt.Errorf("core: job %d task %q was not added by AddTask", j.ID, n.Spec.Name)
		}
		for _, d := range n.dependents {
			if d.idx <= i || d.idx >= len(j.Nodes) || j.Nodes[d.idx] != d {
				return fmt.Errorf("core: job %d dependency graph has a cycle", j.ID)
			}
		}
	}
	return nil
}
