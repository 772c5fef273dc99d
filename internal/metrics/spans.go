package metrics

import "repro/internal/sim"

// Span categories — the GAM activities the span log distinguishes. The
// category names double as Chrome-trace event categories.
const (
	// CatDispatch is a dispatch decision: ready-instant to the command
	// packet leaving the GAM, tagged with why the task waited.
	CatDispatch = "gam.dispatch"
	// CatPollGap is the device-completion to GAM-detection gap of a polled
	// (non-coherent) task.
	CatPollGap = "gam.pollgap"
)

// Cause tags — why the spanned activity happened or took as long as it
// did.
const (
	// CauseImmediate: the task was dispatched in the same instant it
	// became ready.
	CauseImmediate = "immediate"
	// CauseNoIdleInstance: every instance at the task's level was busy.
	CauseNoIdleInstance = "no-idle-instance"
	// CauseInputInFlight: the task's host-side input stream had not landed
	// (NotBefore gate).
	CauseInputInFlight = "input-in-flight"
	// CauseJobGate: cross-job pipelining is disabled and an older job was
	// still open.
	CauseJobGate = "job-gate"
	// CauseStatusPoll: completion was observed by status polling rather
	// than a coherent flag.
	CauseStatusPoll = "status-poll"
)

// Span is one structured GAM event: a category, the affected task/kernel/
// buffer, the lane it renders on (instance name or "GAM"), a cause tag,
// and the spanned simulated-time window (Start == End for instantaneous
// events).
type Span struct {
	Cat   string
	Name  string
	Lane  string
	Cause string
	Start sim.Time
	End   sim.Time
	// Job is the owning job ID (-1 when not job-scoped).
	Job int
	// V carries one category-specific detail: polls for CatPollGap, busy
	// device count at decision time for CatDispatch.
	V int64
}

// Duration reports End - Start.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// SpanLog accumulates spans in emission order. A nil *SpanLog is inert:
// Add on nil is a no-op, so instrumented model code can hold a nil log
// when spans are disabled. (The GAM still guards its hooks with a nil
// check to keep the disabled path free of even argument construction.)
type SpanLog struct {
	spans []Span
}

// NewSpanLog returns an empty log.
func NewSpanLog() *SpanLog { return &SpanLog{} }

// Add appends one span. No-op on a nil log.
func (l *SpanLog) Add(sp Span) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, sp)
}

// Len reports how many spans were recorded.
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// Spans returns the recorded spans in emission order. The slice is the
// log's backing store; callers must not mutate it.
func (l *SpanLog) Spans() []Span {
	if l == nil {
		return nil
	}
	return l.spans
}
