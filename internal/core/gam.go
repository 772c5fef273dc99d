package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/accel"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/sim"
)

// GAM is the hardware global accelerator manager (paper §II-D, Fig. 5).
// It owns a scheduling queue per compute level, a progress table of
// running tasks with estimated wait times, and a status queue; it is the
// single master of every accelerator in the hierarchy.
type GAM struct {
	sys *System

	// readyQ holds each level's ready nodes, indexed by level, always in
	// dispatch order: markReady inserts each node behind every queued node
	// it does not precede by readyBefore.
	readyQ [accel.CPU + 1][]*TaskNode
	// notBefore is, per level, the latest NotBefore of any node ever
	// queued there. While it lies ahead, some queued node may still be
	// waiting for its input, and each round must visit it to re-arm
	// dispatch; once it has passed, no queued node is.
	notBefore [accel.CPU + 1]sim.Time

	// claimed[l][i] is the node running on Accelerators(l)[i], nil while
	// that instance is unclaimed; nClaimed counts the non-nil slots.
	claimed  [accel.CPU][]*TaskNode
	nClaimed int

	// jobs holds, in submission order, the jobs that have not finished.
	// Only the gate reads it, so it is kept only when cross-job pipelining
	// is off. Under the gate jobs finish in submission order, and a
	// finishing job leaves the head before its done handler runs, so no
	// finished job graph stays reachable from the GAM.
	jobs []*Job

	// streamBufs[src][dst] is the registered stream buffer (the
	// shared-layer TokenQueue) of a src→dst level pair, created on first
	// use. Every inter-level stream chunk passes through its pair's buffer,
	// so stream traffic is accounted in the central registry
	// ("stream.<src>-<dst>").
	streamBufs [accel.CPU + 1][accel.CPU + 1]*sim.TokenQueue

	dispatchArmed bool

	// deliverCB/closeCB are the stream-buffer consumer callbacks, allocated
	// once at construction: every Put/Get pair through a stream buffer
	// passes the affected node as the queued item, so the hot path never
	// creates a per-delivery closure.
	deliverCB func(any)
	closeCB   func(any)

	// Stats — the observable behaviour of the Fig. 5 machinery.
	stats GAMStats

	// spans, when non-nil, receives structured decision spans (dispatch
	// causes, poll gaps). Nil — the default — keeps
	// every hook down to a single pointer check.
	spans *metrics.SpanLog

	// qlog, when non-nil, receives per-query phase intervals (queue wait,
	// execution, poll gaps, inter-level transfers) keyed
	// by the QueryID Submit assigns. Nil — the default — keeps every hook
	// down to a single pointer check.
	qlog *qtrace.Log
	// nextQuery is the monotonically increasing QueryID counter. IDs are
	// assigned whether or not a log is attached, so every job carries one.
	nextQuery int
}

// SetSpanLog attaches a span log; pass nil to disable instrumentation.
func (g *GAM) SetSpanLog(l *metrics.SpanLog) { g.spans = l }

// SpanLog reports the attached span log (nil when spans are disabled).
func (g *GAM) SpanLog() *metrics.SpanLog { return g.spans }

// SetQueryLog attaches a per-query trace log; pass nil to disable.
func (g *GAM) SetQueryLog(l *qtrace.Log) { g.qlog = l }

// QueryLog reports the attached query log (nil when tracing is disabled).
func (g *GAM) QueryLog() *qtrace.Log { return g.qlog }

// tracing reports whether any per-task instrumentation (decision spans or
// query tracing) wants the dispatch cause bookkeeping maintained.
func (g *GAM) tracing() bool { return g.spans != nil || g.qlog != nil }

// qtraceAdd records one phase interval for a job's query. It is the
// disabled-path gate for every query-trace hook: with no log attached it
// is a single nil check and must stay allocation-free (see
// TestQTraceDisabledZeroAlloc).
func (g *GAM) qtraceAdd(j *Job, phase, stage, level, detail string, start, end sim.Time) {
	if g.qlog == nil {
		return
	}
	g.qlog.Add(j.QueryID, qtrace.Interval{
		Phase: phase, Stage: stage, Level: level, Detail: detail,
		Start: start, End: end,
	})
}

// levelNames spells accel levels the way the shared stream buffers do
// ("stream.onchip-nearmem"), so per-query transfer intervals and registry
// resources use one vocabulary.
var levelNames = [...]string{
	accel.OnChip:      "onchip",
	accel.NearMemory:  "nearmem",
	accel.NearStorage: "nearstor",
	accel.CPU:         "cpu",
}

// linkNames precomputes every src→dst pair so the transfer hook never
// concatenates on the hot path.
var linkNames = func() (m [len(levelNames)][len(levelNames)]string) {
	for s, sn := range levelNames {
		for d, dn := range levelNames {
			m[s][d] = sn + "-" + dn
		}
	}
	return
}()

// Event phase tags for TaskNode.Fire. A node's lifecycle events all use the
// node itself as the preallocated handler; the phase (and, for deliveries,
// the dependent's index) is encoded in the event arg.
const (
	nodeExec    uint64 = iota // run Execute after the command latency
	nodeFinish                // GAM observes completion (coherent flag or final poll)
	nodePoll                  // status request packet arrives at the device
	nodeDeliver               // zero-byte output forwarded to dependent (arg >> nodePhaseBits)
	nodeStream                // DMA to dependent (arg >> nodePhaseBits) landed
	nodeCollect               // terminal Collect stream reached host memory

	nodePhaseBits = 3
	nodePhaseMask = (1 << nodePhaseBits) - 1
)

// Fire implements sim.Handler for every per-node event, dispatching on the
// phase tag. Using the long-lived node as the handler keeps the simulation
// hot path free of per-event closures.
func (n *TaskNode) Fire(_ *sim.Engine, arg uint64) {
	g := n.gam
	switch arg & nodePhaseMask {
	case nodeExec:
		g.execute(n)
	case nodeFinish:
		g.finish(n)
	case nodePoll:
		g.poll(n)
	case nodeDeliver:
		g.deliver(n.dependents[arg>>nodePhaseBits])
	case nodeStream:
		g.streamDeliver(n, n.dependents[arg>>nodePhaseBits])
	case nodeCollect:
		g.streamPass(g.streamBuf(n.Level, accel.CPU), n, g.closeCB)
	}
}

// GAM-level event args.
const (
	gamDispatch uint64 = iota // armed dispatch pass over the ready queues
	gamArm                    // re-arm dispatch (a NotBefore input landed)
)

// Fire implements sim.Handler for the GAM's own events.
func (g *GAM) Fire(_ *sim.Engine, arg uint64) {
	if arg == gamDispatch {
		g.dispatchArmed = false
		g.dispatchAll()
		return
	}
	g.armDispatch()
}

// GAMStats counts the GAM's control-plane activity.
type GAMStats struct {
	JobsSubmitted   uint64
	JobsCompleted   uint64
	TasksDispatched uint64
	CommandPackets  uint64 // ACC command packets sent
	StatusPolls     uint64 // status request packets sent
	Interrupts      uint64 // host interrupts on job completion
	Transfers       uint64 // inter-level DMA transfers initiated
}

// ProgressEntry is one row of the progress table (Fig. 5e).
type ProgressEntry struct {
	Instance string
	Task     string
	Job      int
	State    NodeState
}

func newGAM(s *System) *GAM {
	g := &GAM{sys: s}
	for l := range g.claimed {
		g.claimed[l] = make([]*TaskNode, s.InstanceCount(accel.Level(l)))
	}
	g.deliverCB = func(v any) { g.deliver(v.(*TaskNode)) }
	g.closeCB = func(v any) { g.closeNode(v.(*TaskNode)) }
	return g
}

// Stats returns a snapshot of the control-plane counters.
func (g *GAM) Stats() GAMStats { return g.stats }

// Progress returns the current progress table, sorted by instance name.
func (g *GAM) Progress() []ProgressEntry {
	var out []ProgressEntry
	for _, slots := range g.claimed {
		for _, n := range slots {
			if n != nil {
				out = append(out, ProgressEntry{
					Instance: n.Instance,
					Task:     n.Spec.Name,
					Job:      n.job.ID,
					State:    n.state,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Instance < out[j].Instance })
	return out
}

// Submit hands a job to the GAM. The host-side runtime sends the job as
// ACC command packets (Fig. 5a); tasks with no dependencies become ready
// immediately.
func (g *GAM) Submit(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	for _, n := range j.Nodes {
		if err := g.sys.checkLevelPopulated(n.Level); err != nil {
			return err
		}
		if n.Pin >= 0 && n.Pin >= g.sys.InstanceCount(n.Level) {
			return fmt.Errorf("core: job %d task %q pinned to %v[%d], only %d instances",
				j.ID, n.Spec.Name, n.Level, n.Pin, g.sys.InstanceCount(n.Level))
		}
	}
	j.SubmittedAt = g.sys.eng.Now()
	j.gam = g
	j.QueryID = g.nextQuery
	g.nextQuery++
	if g.qlog != nil {
		g.qlog.Submitted(j.QueryID, j.ID, j.SubmittedAt)
	}
	if !g.sys.cfg.GAM.CrossJobPipelining {
		g.jobs = append(g.jobs, j)
	}
	g.stats.JobsSubmitted++
	for _, n := range j.Nodes {
		n.gam = g
	}
	for _, n := range j.Nodes {
		if n.deps == 0 {
			g.markReady(n)
		}
	}
	return nil
}

// markReady queues n behind every node at its level that it does not
// precede by readyBefore, so the queue stays sorted and nodes with equal
// keys keep their ready order.
func (g *GAM) markReady(n *TaskNode) {
	n.state = NodeReady
	n.ReadyAt = g.sys.eng.Now()
	q := g.readyQ[n.Level]
	i := sort.Search(len(q), func(i int) bool { return readyBefore(n, q[i]) })
	g.readyQ[n.Level] = slices.Insert(q, i, n)
	g.notBefore[n.Level] = max(g.notBefore[n.Level], n.NotBefore)
	g.armDispatch()
}

// armDispatch coalesces dispatch work into one event per instant.
func (g *GAM) armDispatch() {
	if g.dispatchArmed {
		return
	}
	g.dispatchArmed = true
	g.sys.eng.ScheduleCall(0, g, gamDispatch)
}

// dispatchAll drains every level's ready queue onto idle devices, in
// level order; markReady keeps each queue in dispatch order. A level's
// scan stops once it has no idle instance left, since no node behind that
// point can dispatch this round. It goes on to the end only while a
// skipped node still has a side effect: spans and query tracing refresh
// every queued node's block cause, and a node whose input is still in
// flight re-arms dispatch for when it lands.
func (g *GAM) dispatchAll() {
	// With cross-job pipelining off, only the oldest open job dispatches.
	var gate *Job
	if len(g.jobs) > 0 {
		gate = g.jobs[0]
	}
	now, tracing := g.sys.eng.Now(), g.tracing()
	for l := range g.readyQ {
		level, q := accel.Level(l), g.readyQ[l]
		if len(q) == 0 {
			continue
		}
		idle := g.idleCount(level, now)
		full := tracing || g.notBefore[l] > now
		// Filter in place: nothing inside the loop mutates this level's
		// queue (dispatch only schedules events), so compacting the kept
		// nodes into the same backing array avoids a per-round allocation.
		// The unscanned tail moves down only when some node left.
		rest := q[:0]
		i := 0
		for ; i < len(q) && (idle > 0 || full); i++ {
			n := q[i]
			if gate != nil && n.job != gate {
				if tracing {
					n.blockCause = metrics.CauseJobGate
				}
				rest = append(rest, n)
				continue
			}
			if n.NotBefore > now {
				// Input still in flight: revisit when it lands.
				g.sys.eng.AtCall(n.NotBefore, g, gamArm)
				if tracing {
					n.blockCause = metrics.CauseInputInFlight
				}
				rest = append(rest, n)
				continue
			}
			slot := g.pickIdle(level, n.Pin, now)
			if slot < 0 {
				if tracing {
					n.blockCause = metrics.CauseNoIdleInstance
				}
				rest = append(rest, n)
				continue
			}
			g.dispatch(n, slot)
			idle--
		}
		if len(rest) < i {
			g.readyQ[l] = append(rest, q[i:]...)
		}
	}
}

// readyBefore is the dispatch order: priority first, then oldest job
// (stable within a job). It keeps early batches' later stages ahead of
// later batches' early stages, so pipeline fill does not starve in-flight
// queries, and lets a latency-sensitive tenant preempt queued bulk work.
func readyBefore(a, b *TaskNode) bool {
	if a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	return a.job.ID < b.job.ID
}

// idleCount counts the level's instances that pickIdle may return: the
// unclaimed ones that are not busy at now.
func (g *GAM) idleCount(l accel.Level, now sim.Time) int {
	idle := 0
	for i, a := range g.sys.Accelerators(l) {
		if g.claimed[l][i] == nil && a.BusyUntil() <= now {
			idle++
		}
	}
	return idle
}

// pickIdle finds an unclaimed, idle instance at the level (honouring pins)
// and returns its index in Accelerators(l), or -1 when there is none.
func (g *GAM) pickIdle(l accel.Level, pin int, now sim.Time) int {
	accs := g.sys.Accelerators(l)
	claimed := g.claimed[l]
	if pin >= 0 {
		if claimed[pin] == nil && accs[pin].BusyUntil() <= now {
			return pin
		}
		return -1
	}
	for i, a := range accs {
		if claimed[i] == nil && a.BusyUntil() <= now {
			return i
		}
	}
	return -1
}

// dispatch claims instance slot of the node's level, sends one ACC command
// packet and arranges completion detection.
func (g *GAM) dispatch(n *TaskNode, slot int) {
	a := g.sys.Accelerators(n.Level)[slot]
	g.claimed[n.Level][slot] = n
	g.nClaimed++
	n.slot = slot
	n.state = NodeRunning
	n.Instance = a.Name()
	n.DispatchedAt = g.sys.eng.Now()
	g.stats.TasksDispatched++
	g.stats.CommandPackets++
	if g.tracing() {
		// The dispatch span covers ready-instant to command send; the cause
		// names the last reason the node sat in the queue (or "immediate").
		cause := n.blockCause
		if cause == "" || n.DispatchedAt == n.ReadyAt {
			cause = metrics.CauseImmediate
		}
		n.blockCause = ""
		if g.spans != nil {
			g.spans.Add(metrics.Span{
				Cat: metrics.CatDispatch, Name: n.Spec.Name, Lane: a.Name(),
				Cause: cause, Start: n.ReadyAt, End: n.DispatchedAt,
				Job: n.job.ID, V: int64(g.nClaimed),
			})
		}
		g.qtraceAdd(n.job, qtrace.PhaseQueue, n.Spec.Stage, n.Level.String(),
			cause, n.ReadyAt, n.DispatchedAt)
	}

	cl := g.sys.gamCommandLatency()
	n.acc = a
	n.estimate = a.Estimate(&n.Spec)
	g.sys.eng.ScheduleCall(cl, n, nodeExec)
}

// execute runs when the ACC command packet arrives at the device.
func (g *GAM) execute(n *TaskNode) {
	a := n.acc
	// Configure the fabric (partial reconfiguration when a different
	// kernel was resident). It takes no simulated time, as in the paper's
	// evaluation §VI-A, so the fabric's reconfiguration count is all it
	// leaves behind.
	if err := a.Fabric().Load(n.Spec.Kernel); err != nil {
		panic(fmt.Sprintf("core: kernel/device mismatch on %s: %v", a.Name(), err))
	}
	done, err := a.Execute(&n.Spec)
	if err != nil {
		// The GAM only dispatches to devices it observed idle; an
		// execution refusal means the model's invariants are broken.
		panic(fmt.Sprintf("core: dispatch invariant violated on %s: %v", a.Name(), err))
	}
	n.CompletedAt = done
	g.qtraceAdd(n.job, qtrace.PhaseExec, n.Spec.Stage, n.Level.String(),
		a.Name(), g.sys.eng.Now(), done)
	cl := g.sys.gamCommandLatency()
	if n.Level == accel.OnChip {
		// On-chip accelerators are cache-coherent: completion is
		// observed through the coherent flag without polling.
		g.sys.eng.AtCall(done+cl, n, nodeFinish)
		return
	}
	// Memory/storage modules cannot interrupt the GAM (§II-D): poll
	// at the estimated completion, and keep polling with refreshed
	// wait estimates until the device reports done.
	firstPoll := g.sys.eng.Now() + n.estimate
	g.schedulePoll(n, firstPoll)
}

// schedulePoll sends a status request packet at pollAt.
func (g *GAM) schedulePoll(n *TaskNode, pollAt sim.Time) {
	if minAt := g.sys.eng.Now() + g.sys.gamCommandLatency(); pollAt < minAt {
		pollAt = minAt
	}
	g.sys.eng.AtCall(pollAt, n, nodePoll)
}

// poll runs when a status request packet reaches the device (the event
// fires at the — possibly clamped — pollAt, so Now() is the poll time).
func (g *GAM) poll(n *TaskNode) {
	pollAt := g.sys.eng.Now()
	cl := g.sys.gamCommandLatency()
	g.stats.StatusPolls++
	n.Polls++
	if pollAt >= n.CompletedAt {
		// Status packet returns "finished" with the output region
		// address (Fig. 5b).
		g.sys.eng.ScheduleCall(cl, n, nodeFinish)
		return
	}
	// Not finished: the device returns a refreshed wait time of
	// remaining × (1+slack), updated in the progress table.
	remaining := n.CompletedAt - pollAt
	next := sim.Time(float64(remaining) * (1 + g.sys.cfg.GAM.StatusSlackFraction))
	if next < cl {
		next = cl
	}
	g.schedulePoll(n, pollAt+next)
}

// finish runs when the GAM observes a task's completion: it frees the
// device, forwards outputs to dependents via inter-level DMA, and closes
// the job when its last node completes.
func (g *GAM) finish(n *TaskNode) {
	a := n.acc
	n.state = NodeDone
	n.DetectedAt = g.sys.eng.Now()
	g.claimed[n.Level][n.slot] = nil
	g.nClaimed--
	if g.tracing() && n.Polls > 0 && n.DetectedAt > n.CompletedAt {
		// Poll-detection gap: the window between device completion and the
		// GAM noticing it through status polling (non-coherent levels).
		if g.spans != nil {
			g.spans.Add(metrics.Span{
				Cat: metrics.CatPollGap, Name: n.Spec.Name, Lane: a.Name(),
				Cause: metrics.CauseStatusPoll, Start: n.CompletedAt,
				End: n.DetectedAt, Job: n.job.ID, V: int64(n.Polls),
			})
		}
		g.qtraceAdd(n.job, qtrace.PhasePollGap, n.Spec.Stage, n.Level.String(),
			a.Name(), n.CompletedAt, n.DetectedAt)
	}

	// Forward outputs to each dependent (stream enqueue, duplicated per
	// destination for broadcast semantics). Data-carrying forwards pass
	// through the src→dst stream buffer: the put/get pair completes in the
	// same instant (the DMA already paid the transfer time), so timing is
	// unchanged while stream traffic is accounted at the shared layer.
	// Both delivery flavours reuse the finished node as the event handler
	// with the dependent's index in the arg — no per-dependent closures.
	for i, dep := range n.dependents {
		if n.OutBytes > 0 {
			dstIdx := dep.Pin
			if dstIdx < 0 {
				dstIdx = 0
			}
			g.stats.Transfers++
			transferDone := g.sys.Transfer(n.Level, dep.Level, dstIdx, n.OutBytes, n.Spec.Stage)
			g.qtraceAdd(n.job, qtrace.PhaseXfer, n.Spec.Stage, dep.Level.String(),
				linkNames[n.Level][dep.Level], n.DetectedAt, transferDone)
			g.sys.eng.AtCall(transferDone, n, nodeStream|uint64(i)<<nodePhaseBits)
		} else {
			g.sys.eng.AtCall(g.sys.eng.Now(), n, nodeDeliver|uint64(i)<<nodePhaseBits)
		}
	}

	if len(n.dependents) == 0 && n.SinkToHost && n.OutBytes > 0 {
		// Terminal node with a Collect stream back to the host: the job
		// isn't complete until the result lands in host memory.
		g.stats.Transfers++
		collected := g.sys.Transfer(n.Level, accel.CPU, 0, n.OutBytes, n.Spec.Stage)
		g.qtraceAdd(n.job, qtrace.PhaseXfer, n.Spec.Stage, accel.CPU.String(),
			linkNames[n.Level][accel.CPU], n.DetectedAt, collected)
		g.sys.eng.AtCall(collected, n, nodeCollect)
		g.armDispatch()
		return
	}
	g.closeNode(n)
	g.armDispatch()
}

// streamDeliver runs when the DMA to dependents[i] lands: the chunk passes
// through the src→dst stream buffer (put/get complete in the same instant;
// the transfer time was already paid) and the dependency releases.
func (g *GAM) streamDeliver(n, dep *TaskNode) {
	g.streamPass(g.streamBuf(n.Level, dep.Level), dep, g.deliverCB)
}

// streamPass pushes item through buf's put/get pair. The get takes the
// item back out in the same call, so a buffer never holds more than the
// item in hand and a put never finds it full.
func (g *GAM) streamPass(buf *sim.TokenQueue, item *TaskNode, consume func(any)) {
	buf.Put(item, nil)
	buf.Get(consume)
}

// deliver releases one dependency edge into dep.
func (g *GAM) deliver(dep *TaskNode) {
	dep.deps--
	if dep.deps == 0 {
		g.markReady(dep)
	}
}

// streamBuf returns (creating on first use) the registered stream buffer
// for a src→dst level pair. streamPass never holds more than one item in
// it, so it has capacity 1; the buffer is a shared-layer TokenQueue, so
// puts, gets and occupancy surface through the central stats registry.
func (g *GAM) streamBuf(src, dst accel.Level) *sim.TokenQueue {
	if q := g.streamBufs[src][dst]; q != nil {
		return q
	}
	// Stream buffers are created lazily mid-run, so the node prefix is
	// applied here rather than through the registry's construction-scoped
	// prefix.
	name := fmt.Sprintf("%sstream.%s-%s", g.sys.prefix,
		strings.ToLower(src.String()), strings.ToLower(dst.String()))
	q := sim.NewTokenQueue(g.sys.eng, name, 1)
	g.streamBufs[src][dst] = q
	return q
}

// closeNode retires a finished node and completes the job when it was the
// last one.
func (g *GAM) closeNode(n *TaskNode) {
	j := n.job
	j.remaining--
	if j.remaining == 0 {
		// Interrupt the host (Fig. 6 step 3): the job itself is the
		// preallocated handler for its completion event.
		g.stats.Interrupts++
		g.sys.eng.ScheduleCall(g.sys.gamCommandLatency(), j, 0)
	}
	g.armDispatch()
}

// Fire implements sim.Handler: the host observes the completion interrupt.
func (j *Job) Fire(eng *sim.Engine, _ uint64) {
	g := j.gam
	j.done = true
	j.FinishedAt = eng.Now()
	g.stats.JobsCompleted++
	if g.qlog != nil {
		g.qlog.Completed(j.QueryID, j.FinishedAt)
	}
	if len(g.jobs) > 0 {
		// The gate runs jobs one at a time, so the finishing job is the
		// head. It leaves before the handler runs, which may reset and
		// resubmit it.
		if g.jobs[0] != j {
			panic(fmt.Sprintf("core: job %d finished ahead of gated job %d", j.ID, g.jobs[0].ID))
		}
		g.jobs[0] = nil
		g.jobs = g.jobs[1:]
	}
	if j.onDone != nil {
		j.onDone.JobDone(j, j.doneArg)
	}
	// A finished job may unblock the next one when cross-job pipelining is
	// disabled.
	g.armDispatch()
}
