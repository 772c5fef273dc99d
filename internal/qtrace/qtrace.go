// Package qtrace is the per-query observability layer: where
// internal/metrics answers "which resource was under pressure when", this
// package answers "where did query 1041's time go". The GAM assigns every
// submitted job a QueryID and, when a Log is attached, records a timeline
// of phase intervals for it — queue wait per stage (with the dispatch
// cause tag), accelerator execution, poll-detection gaps, and
// inter-level data movement. Completed queries
// fold their end-to-end latency into an allocation-free log-bucketed
// quantile sketch (p50/p95/p99/p999 with a documented relative-error
// bound) and reduce their timeline to a critical-path attribution: the
// phase whose merged intervals cover the largest share of the query's
// lifetime ("query 1041: 62% shortlist queue wait at near-memory").
// A log opened with Options.DropTimelines is the latency-only variant the
// timed sweeps use: it records no interval and attributes nothing, and
// keeps each query's bounds, the sketch and the observer.
//
// The layer is zero-cost when disabled: nothing is attached and the model
// hot paths pay a single nil check per hook (gated by
// TestQTraceDisabledZeroAlloc, same standard as the metrics span hooks).
package qtrace

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Phase kinds — where a slice of a query's lifetime went.
const (
	// PhaseQueue is ready-instant to dispatch for one task: time spent in a
	// GAM scheduling queue. Detail carries the dispatch cause tag
	// (metrics.Cause*).
	PhaseQueue = "queue"
	// PhaseExec is command arrival to device-side completion on an
	// accelerator. Detail carries the instance name.
	PhaseExec = "exec"
	// PhasePollGap is device completion to GAM detection for a polled
	// (non-coherent) task. Detail carries the instance name.
	PhasePollGap = "pollgap"
	// PhaseXfer is an inter-level DMA moving a task's output stream down
	// or up the hierarchy. Detail carries the "src-dst" level pair in the
	// same spelling as the shared stream buffers ("onchip-nearmem"), which
	// names the physical links crossed (AIMbus, PCIe, NoC, flash).
	PhaseXfer = "xfer"
	// PhaseCacheHit is a query served entirely by the cluster's front-end
	// result cache — no scatter ever happened. Detail distinguishes a
	// direct hit ("fe-cache") from a query coalesced onto an in-flight
	// scatter for the same content ("fe-coalesce").
	PhaseCacheHit = "cache-hit"
)

// Interval is one recorded slice of a query's timeline.
type Interval struct {
	Phase string
	// Stage is the pipeline-stage label of the affected task ("" for
	// intervals not tied to one stage).
	Stage string
	// Level is the compute level the interval happened at (accel.Level
	// spelling; the destination level for transfers).
	Level string
	// Detail is phase-specific: cause tag, instance, kernel, or level
	// pair — see the Phase constants.
	Detail string
	Start  sim.Time
	End    sim.Time
}

// Duration reports End − Start.
func (iv Interval) Duration() sim.Time { return iv.End - iv.Start }

// Attribution is one phase's merged share of a query's lifetime: the
// union of its intervals (overlaps between parallel tasks of the same
// phase count once), as covered time and as a fraction of the query's
// end-to-end latency.
type Attribution struct {
	Phase string
	Stage string
	Level string
	// Covered is the union length of the phase's intervals.
	Covered sim.Time
	// Share is Covered over the query's latency, in [0, 1].
	Share float64
}

// Query is one traced request: identity, the lifetime bounds, the
// recorded timeline, and — once completed — its attribution.
type Query struct {
	ID  int
	Job int
	// Arrival and Done bound the query: GAM submission to host interrupt.
	Arrival sim.Time
	Done    sim.Time
	// Intervals is the recorded timeline in emission order (always nil
	// when Options.DropTimelines is set).
	Intervals []Interval

	// Attribution is the per-phase breakdown, sorted by descending
	// Covered (ties by phase/stage/level name), computed at completion
	// (nil for a query that recorded no intervals). Attribution[0] is the
	// dominant phase.
	Attribution []Attribution

	done bool
}

// Latency reports Done − Arrival (zero before completion).
func (q *Query) Latency() sim.Time {
	if !q.done {
		return 0
	}
	return q.Done - q.Arrival
}

// Completed reports whether the query finished.
func (q *Query) Completed() bool { return q.done }

// Dominant returns the top attribution (zero value before completion or
// for a query that recorded no intervals).
func (q *Query) Dominant() Attribution {
	if len(q.Attribution) == 0 {
		return Attribution{}
	}
	return q.Attribution[0]
}

// Observer sees every query completion as it happens, on the simulation
// goroutine: the query's ID, its simulated completion instant and its
// end-to-end latency. The flight recorder hangs off this hook. Keep
// implementations cheap; they run inside the event loop.
type Observer interface {
	QueryDone(id int, at, latency sim.Time)
}

// Options configures a Log.
type Options struct {
	// DropTimelines makes the log latency-only, for long sweeps that read
	// latencies alone: Add records nothing, so no query keeps a timeline
	// or an attribution. Every query still keeps its Arrival and Done,
	// completions still feed the latency sketch, and the observer is
	// still notified.
	DropTimelines bool
	// Observer, when set, is notified of every completion.
	Observer Observer
}

// Log records per-query timelines for one run (one GAM). It is not safe
// for concurrent use; like the engine it rides on, it belongs to a single
// simulation goroutine.
type Log struct {
	opt     Options
	sketch  *Sketch
	queries []*Query
	done    uint64

	// keys and spans are attribute's scratch, reused across completions.
	keys  []attKey
	spans []span
}

// NewLog returns an empty log.
func NewLog(o Options) *Log {
	return &Log{opt: o, sketch: NewSketch(0)}
}

// Submitted opens query qid (the GAM's monotonically assigned QueryID)
// for job job at simulated time at. IDs must arrive in order — they index
// the log's dense query table.
func (l *Log) Submitted(qid, job int, at sim.Time) {
	for len(l.queries) <= qid {
		l.queries = append(l.queries, nil)
	}
	l.queries[qid] = &Query{ID: qid, Job: job, Arrival: at}
}

// Add appends one interval to an open query's timeline. Intervals for
// unknown queries are dropped (a Log attached mid-run sees tails of
// queries it never saw submitted), and so is every interval under
// DropTimelines.
func (l *Log) Add(qid int, iv Interval) {
	if l.opt.DropTimelines || qid < 0 || qid >= len(l.queries) || l.queries[qid] == nil {
		return
	}
	l.queries[qid].Intervals = append(l.queries[qid].Intervals, iv)
}

// Completed closes query qid at simulated time at: records its latency in
// the sketch, reduces its timeline to attributions (none under
// DropTimelines, which records no timeline), and notifies the observer.
func (l *Log) Completed(qid int, at sim.Time) {
	if qid < 0 || qid >= len(l.queries) || l.queries[qid] == nil {
		return
	}
	q := l.queries[qid]
	q.Done = at
	q.done = true
	l.done++
	l.sketch.Add(q.Latency())
	q.Attribution = l.attribute(q)
	if l.opt.Observer != nil {
		l.opt.Observer.QueryDone(qid, at, q.Latency())
	}
}

// CompletedCount reports how many queries finished.
func (l *Log) CompletedCount() uint64 { return l.done }

// Sketch exposes the end-to-end latency sketch over completed queries.
func (l *Log) Sketch() *Sketch { return l.sketch }

// Queries returns every known query in QueryID order (entries the log
// never saw submitted are skipped). The slice is freshly allocated; the
// Query pointers are the log's own.
func (l *Log) Queries() []*Query {
	out := make([]*Query, 0, len(l.queries))
	for _, q := range l.queries {
		if q != nil {
			out = append(out, q)
		}
	}
	return out
}

// Query looks up one query by ID (nil when unknown).
func (l *Log) Query(qid int) *Query {
	if qid < 0 || qid >= len(l.queries) {
		return nil
	}
	return l.queries[qid]
}

// attKey groups intervals for attribution.
type attKey struct{ phase, stage, level string }

// span is one interval as attribution reads it: the index of its key in
// the query's key table and its bounds clamped to the query's window. It
// is a third of an Interval's size, which is what sorting moves.
type span struct {
	key        int
	start, end sim.Time
}

// attribute reduces a completed query's timeline to per-phase coverage:
// for each (phase, stage, level) key, the union length of its intervals
// clamped to the query's [Arrival, Done] window, sorted by descending
// coverage with name tie-breaks. Keys are unique, so that order is total
// and the result does not depend on how the intervals were grouped.
func (l *Log) attribute(q *Query) []Attribution {
	if len(q.Intervals) == 0 {
		return nil
	}
	keys, spans := l.keys[:0], l.spans[:0]
	for _, iv := range q.Intervals {
		k := attKey{iv.Phase, iv.Stage, iv.Level}
		ki := slices.Index(keys, k)
		if ki < 0 {
			ki = len(keys)
			keys = append(keys, k)
		}
		if s, e := max(iv.Start, q.Arrival), min(iv.End, q.Done); e > s {
			spans = append(spans, span{key: ki, start: s, end: e})
		}
	}
	l.keys, l.spans = keys, spans
	slices.SortFunc(spans, func(a, b span) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.start, b.start)
	})
	out := make([]Attribution, len(keys))
	for i, k := range keys {
		out[i] = Attribution{Phase: k.phase, Stage: k.stage, Level: k.level}
	}
	// Each key's spans are now in start order: merge overlaps into runs
	// and add each run's length to the key's coverage.
	for i, j := 0, 0; i < len(spans); i = j {
		key, lo, hi := spans[i].key, spans[i].start, spans[i].end
		for j = i + 1; j < len(spans) && spans[j].key == key && spans[j].start <= hi; j++ {
			hi = max(hi, spans[j].end)
		}
		out[key].Covered += hi - lo
	}
	if lat := q.Done - q.Arrival; lat > 0 {
		for i := range out {
			out[i].Share = float64(out[i].Covered) / float64(lat)
		}
	}
	slices.SortFunc(out, func(a, b Attribution) int {
		if a.Covered != b.Covered {
			return cmp.Compare(b.Covered, a.Covered)
		}
		if a.Phase != b.Phase {
			return strings.Compare(a.Phase, b.Phase)
		}
		if a.Stage != b.Stage {
			return strings.Compare(a.Stage, b.Stage)
		}
		return strings.Compare(a.Level, b.Level)
	})
	return out
}
