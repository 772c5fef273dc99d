// Package metrics is the simulator's time-resolved observability layer.
// Where the StatsRegistry reports end-of-run aggregates, this package
// records *when* pressure built: a periodic Sampler scheduled on the sim
// engine walks the registry every N sim-microseconds and records one
// point per resource that has moved so far, and a SpanLog collects the
// GAM's structured decision spans (dispatch causes, poll-detection gaps,
// stream-buffer stalls).
//
// A Series is stored as change runs: a point is kept only where one of
// its six values differs from the last kept point, with the sample its
// run begins at, so a resource holding still between samples costs a
// comparison and no memory. Series.At still reads any sample, and the
// exporters walk the runs (Series.Runs): the CSV writer formats a run's
// row tail once and copies it for every sample the run holds.
//
// The layer is zero-cost when disabled — nothing is attached to the engine
// and the model hot paths only pay a nil check — and allocation-free in
// steady state when enabled: stored points fill preallocated chunks and
// the registry walk is cached between registrations (see
// TestSamplerZeroAllocSteadyState).
//
// Partitioned (cluster) simulations use MultiSampler instead: the same
// series store (interval, time axis, run-stored series and their accessors),
// but driven off the MultiEngine's barriers rather than calendar events,
// so sampling can never perturb the deterministic round structure.
// AttachMulti installs it. A standalone engine keeps the timer-driven
// Sampler: run as a one-domain MultiEngine its lookahead is MaxTime, so
// the whole run is a single round and would yield a single sample.
//
// Exporters live next to the consumers: trace.AddCounters/AddSpans merge
// the series into the Chrome trace timeline as "C" counter lanes,
// CSVWriter dumps the raw time series, and Attribute reduces a
// sampled run to a per-phase bottleneck attribution (rendered by
// report.Bottleneck).
package metrics

import (
	"repro/internal/sim"
)

// DefaultInterval is the sampling period used when Options.Interval is
// unset: fine enough to resolve individual pipeline stages of the CBIR
// workload (hundreds of µs to ms), coarse enough to stay cheap.
const DefaultInterval = 10 * sim.Microsecond

// Options selects what a run records.
type Options struct {
	// Interval is the sampling period in simulated time; <= 0 means
	// DefaultInterval.
	Interval sim.Time
	// Spans enables the GAM decision-span log.
	Spans bool
}

// Recorder bundles one run's observability state: the periodic registry
// sampler and (when enabled) the GAM span log.
type Recorder struct {
	Sampler *Sampler
	// Spans is nil unless Options.Spans was set.
	Spans *SpanLog
}

// Attach creates a Recorder on eng and schedules the sampler's first tick.
// Call Recorder.Finish after the simulation drains to take the closing
// sample.
func Attach(eng *sim.Engine, o Options) *Recorder {
	r := &Recorder{Sampler: NewSampler(eng, o.Interval)}
	if o.Spans {
		r.Spans = NewSpanLog()
	}
	r.Sampler.Start()
	return r
}

// Finish takes the closing sample. Call once, after the engine drains.
func (r *Recorder) Finish() {
	r.Sampler.Finish()
}
