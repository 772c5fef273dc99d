// Package trace exports simulated ReACH executions as Chrome trace-event
// JSON (the chrome://tracing / Perfetto format), one lane per accelerator
// instance plus a GAM control lane. Loading the file into a trace viewer
// shows the pipeline visually: stage overlap across batches, the polling
// gaps between device completion and GAM detection, and the inter-level
// transfer windows.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/sim"
)

// laneKey identifies a lane: Chrome thread ids are scoped per process, so
// a lane is a (pid, name) pair. Single-system traces live entirely in pid
// 1; cluster traces give every node its own process group (see AddCluster).
type laneKey struct {
	pid  int
	name string
}

// Timeline accumulates Chrome trace events — "X" complete slices, "C"
// counters, "b"/"e" async pairs — each encoded once as it is added (see
// eventStore).
type Timeline struct {
	eventStore
	lanes   map[laneKey]int // (pid, lane name) → tid
	nextTID map[int]int     // per-pid tid allocator
	order   []laneKey
	procs   map[int]string // pid → process name (only named pids emit metadata)
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{
		lanes:   make(map[laneKey]int),
		nextTID: make(map[int]int),
		procs:   make(map[int]string),
	}
}

// SetProcessName names a Chrome process group. Unnamed pids emit no
// process metadata, so single-process traces are byte-identical to the
// pre-cluster format.
func (t *Timeline) SetProcessName(pid int, name string) {
	t.procs[pid] = name
}

func (t *Timeline) lane(name string) int { return t.laneAt(1, name) }

func (t *Timeline) laneAt(pid int, name string) int {
	k := laneKey{pid, name}
	if id, ok := t.lanes[k]; ok {
		return id
	}
	t.nextTID[pid]++
	id := t.nextTID[pid]
	t.lanes[k] = id
	t.order = append(t.order, k)
	return id
}

func us(ts sim.Time) float64 { return ts.Seconds() * 1e6 }

// AddJob records every node of a completed job: one "X" slice per task on
// its instance lane (dispatch → device completion) and a second short
// slice for the GAM detection gap when polling delayed it.
func (t *Timeline) AddJob(j *core.Job) error {
	if !j.Done() {
		return fmt.Errorf("trace: job %d not complete", j.ID)
	}
	for _, n := range j.Nodes {
		lane := t.lane(n.Instance)
		t.begin(n.Spec.Name+" (job "+strconv.Itoa(j.ID)+")", eventHead{
			cat: n.Spec.Stage, ph: "X",
			ts: us(n.DispatchedAt), dur: us(n.CompletedAt - n.DispatchedAt),
			pid: 1, tid: lane,
		}).
			argInt("bytes", n.Spec.Bytes).
			argStr("level", n.Level.String()).
			argFloat("macs", n.Spec.MACs).
			argInt("polls", int64(n.Polls)).
			argStr("source", n.Spec.Source.String()).
			argStr("stage", n.Spec.Stage).
			add()
		if gap := n.DetectedAt - n.CompletedAt; gap > 0 {
			t.begin("await GAM status", eventHead{cat: "gam", ph: "X", ts: us(n.CompletedAt), dur: us(gap), pid: 1, tid: lane}).
				argInt("polls", int64(n.Polls)).
				add()
		}
	}
	// Job span on the GAM lane.
	t.begin("job "+strconv.Itoa(j.ID), eventHead{
		cat: "job", ph: "X",
		ts: us(j.SubmittedAt), dur: us(j.FinishedAt - j.SubmittedAt),
		pid: 1, tid: t.lane("GAM"),
	}).add()
	return nil
}

// Events reports how many events were recorded.
func (t *Timeline) Events() int { return len(t.refs) }

// Lanes lists the lanes in first-seen order. Lanes outside pid 1 are
// prefixed with their process name ("node 2/net in").
func (t *Timeline) Lanes() []string {
	out := make([]string, 0, len(t.order))
	for _, k := range t.order {
		if k.pid == 1 {
			out = append(out, k.name)
			continue
		}
		proc := t.procs[k.pid]
		if proc == "" {
			proc = fmt.Sprintf("pid%d", k.pid)
		}
		out = append(out, proc+"/"+k.name)
	}
	return out
}

// WriteJSON streams the trace in Chrome trace-event array format:
// process and lane metadata first, then every event by timestamp, ties in
// insertion order, with a trailing newline ("null" for an empty
// timeline). The bytes match encoding/json's rendering of the same
// events. A NaN or infinite value anywhere in the trace makes WriteJSON
// fail before it writes anything. WriteJSON reorders the timeline's
// internal event refs, so it must not run concurrently with itself or
// with the Add* methods.
func (t *Timeline) WriteJSON(w io.Writer) error {
	if t.err != nil {
		return t.err
	}
	if len(t.procs) == 0 && len(t.lanes) == 0 && len(t.refs) == 0 {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	sep := byte('[')
	// put writes one array element. bufio.Writer errors are sticky, so
	// the final Flush reports the first failed write.
	put := func(ev []byte) {
		bw.WriteByte(sep)
		bw.Write(ev)
		sep = ','
	}
	// Process- and lane-name metadata first, in deterministic order.
	pids := make([]int, 0, len(t.procs))
	for pid := range t.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var b []byte
	for _, pid := range pids {
		b = appendString(appendMeta(b[:0], "process_name", pid, 0, "name"), t.procs[pid])
		b = append(b, "}}"...)
		put(b)
		b = strconv.AppendInt(appendMeta(b[:0], "process_sort_index", pid, 0, "sort_index"), int64(pid), 10)
		b = append(b, "}}"...)
		put(b)
	}
	keys := make([]laneKey, 0, len(t.lanes))
	for k := range t.lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].name < keys[j].name
	})
	for _, k := range keys {
		b = appendString(appendMeta(b[:0], "thread_name", k.pid, t.lanes[k], "name"), k.name)
		b = append(b, "}}"...)
		put(b)
	}
	// Sorting in place is harmless: the key is unique, so any later
	// WriteJSON sorts to the same order.
	slices.SortFunc(t.refs, compareRefs)
	for _, r := range t.refs {
		put(t.bytes(r))
	}
	bw.WriteString("]\n")
	return bw.Flush()
}

// appendMeta appends a metadata ("M") event up to the value of its one
// arg, in the metadata record's field order: name, ph, pid, tid, args.
// The caller appends the value and closes both objects.
func appendMeta(b []byte, name string, pid, tid int, key string) []byte {
	b = appendString(append(b, `{"name":`...), name)
	b = strconv.AppendInt(append(b, `,"ph":"M","pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	b = appendString(append(b, `,"args":{`...), key)
	return append(b, ':')
}
