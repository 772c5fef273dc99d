package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RunSpec declares one independent simulation run: which system to build,
// which workload and mapping to run on it, how many batch jobs to submit,
// and how to attribute background energy afterwards. Every experiment in
// this package is a slice of RunSpecs plus a pure reducer over the
// resulting []*RunResult; RunSpecs executes the slice on the shared
// parallel runner. Each run owns its own core.System and event engine, so
// runs are independent and the results are byte-for-byte identical
// whatever the worker count.
type RunSpec struct {
	// Name labels the run in progress reports and errors.
	Name string
	// Model is the CBIR workload model; it is validated before the run.
	Model workload.Model
	// Mapping assigns pipeline stages to compute levels. Used by the
	// default job builder and, with Instances, by the default config.
	Mapping Mapping
	// Instances is the near-data population per used level for the
	// default config (configFor semantics).
	Instances int
	// Batches is the number of jobs submitted (ids 0..Batches-1).
	Batches int

	// Config, when non-nil, replaces the default configFor(Mapping,
	// Instances) system config.
	Config *config.SystemConfig
	// Mutate, when non-nil, adjusts the config before the system is
	// built — how the ablations vary GAM parameters per run.
	Mutate func(*config.SystemConfig)
	// Setup, when non-nil, runs after the system is built and before any
	// job is submitted (e.g. to tweak accelerator instances).
	Setup func(sys *core.System) error
	// BuildJob, when non-nil, replaces the default pipeline job builder
	// (BuildPipelineJob with Mapping) — how the granularity, skew,
	// reverse-lookup and multi-tenant experiments shape their jobs.
	BuildJob func(sys *core.System, id int) (*core.Job, error)
	// SubmitAt, when non-nil, schedules job id's submission at the
	// returned simulated time instead of submitting everything at t=0 —
	// the open-loop arrival processes of the load sweep.
	SubmitAt func(id int) sim.Time
	// Background selects the post-run background-energy attribution.
	// The zero value charges nothing.
	Background BackgroundMode
	// BackgroundLabel is the stage label for BackgroundFirstLatency.
	BackgroundLabel string

	// Metrics, when non-nil, attaches a time-resolved observability
	// recorder to the run: a periodic registry sampler and (when
	// Metrics.Spans is set) the GAM decision-span log. The recorder rides
	// back on RunResult.Obs. Nil — the default — leaves the run entirely
	// uninstrumented, so results are byte-identical to pre-metrics builds.
	Metrics *metrics.Options

	// QTrace, when non-nil, attaches a per-query trace log to the run: every
	// job gets a recorded timeline of phase intervals and completed queries
	// feed the tail-latency sketch. The log rides back on RunResult.QLog.
	// Nil — the default — keeps the GAM's query hooks at a single nil check.
	QTrace *qtrace.Options
}

// BackgroundMode is a RunSpec's background-energy attribution policy,
// applied once after the simulation drains.
type BackgroundMode int

const (
	// BackgroundNone charges no background energy (experiments that only
	// report runtime/throughput).
	BackgroundNone BackgroundMode = iota
	// BackgroundStageSpan charges background power over the makespan,
	// split across stages in proportion to the first job's per-stage
	// busy spans (the end-to-end pipeline experiments).
	BackgroundStageSpan
	// BackgroundMakespanRR charges the whole makespan to the rerank
	// stage (the GAM ablation's convention).
	BackgroundMakespanRR
	// BackgroundFirstLatency charges the first job's latency to
	// BackgroundLabel (the isolated single-stage runs of Figs. 9-11).
	BackgroundFirstLatency
)

// Run executes the spec to completion and returns its result. It is the
// single-run core under RunPipeline, RunStage and every sweep.
func (s RunSpec) Run() (*RunResult, error) {
	if err := s.Model.Validate(); err != nil {
		return nil, err
	}
	if s.Batches <= 0 {
		return nil, fmt.Errorf("experiments: run %q needs at least one batch", s.Name)
	}
	cfg := configFor(s.Mapping, s.Instances)
	if s.Config != nil {
		cfg = *s.Config
	}
	if s.Mutate != nil {
		s.Mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if s.Setup != nil {
		if err := s.Setup(sys); err != nil {
			return nil, err
		}
	}
	build := s.BuildJob
	if build == nil {
		build = func(sys *core.System, id int) (*core.Job, error) {
			return BuildPipelineJob(sys, id, s.Model, s.Mapping)
		}
	}
	res := &RunResult{Sys: sys, Batches: s.Batches, StageSpan: make(map[string]sim.Time)}
	if s.Metrics != nil {
		res.Obs = metrics.Attach(sys.Engine(), *s.Metrics)
		if res.Obs.Spans != nil {
			sys.GAM().SetSpanLog(res.Obs.Spans)
		}
	}
	if s.QTrace != nil {
		res.QLog = qtrace.NewLog(*s.QTrace)
		sys.GAM().SetQueryLog(res.QLog)
	}
	for b := 0; b < s.Batches; b++ {
		j, err := build(sys, b)
		if err != nil {
			return nil, err
		}
		if s.SubmitAt == nil {
			if err := sys.GAM().Submit(j); err != nil {
				return nil, err
			}
		} else {
			job := j
			sys.Engine().At(s.SubmitAt(b), func() {
				if err := sys.GAM().Submit(job); err != nil {
					panic(err) // surfaces as a runner PanicError
				}
			})
		}
		res.Jobs = append(res.Jobs, j)
	}
	sys.Run()
	if res.Obs != nil {
		res.Obs.Finish()
	}

	for _, j := range res.Jobs {
		if !j.Done() {
			return nil, fmt.Errorf("experiments: %s: job %d did not complete", s.name(), j.ID)
		}
	}
	first, last := res.Jobs[0], res.Jobs[s.Batches-1]
	res.Latency = first.Latency()
	res.Makespan = last.FinishedAt - first.SubmittedAt

	// The first batch's per-stage earliest-dispatch to latest-completion
	// windows, for the figure reducers and the stage-span background
	// split.
	type span struct{ lo, hi sim.Time }
	spans := map[string]*span{}
	for _, node := range first.Nodes {
		st := node.Spec.Stage
		sp, ok := spans[st]
		if !ok {
			spans[st] = &span{lo: node.DispatchedAt, hi: node.CompletedAt}
			continue
		}
		if node.DispatchedAt < sp.lo {
			sp.lo = node.DispatchedAt
		}
		if node.CompletedAt > sp.hi {
			sp.hi = node.CompletedAt
		}
	}
	var totalSpan sim.Time
	for st, sp := range spans {
		res.StageSpan[st] = sp.hi - sp.lo
		totalSpan += sp.hi - sp.lo
	}

	switch s.Background {
	case BackgroundStageSpan:
		// Background power over the makespan, split across stages by
		// busy share so the Fig. 8 stacking has a home for it.
		if totalSpan > 0 {
			for st, sp := range res.StageSpan {
				frac := float64(sp) / float64(totalSpan)
				window := sim.Time(float64(res.Makespan) * frac)
				sys.Background(st, window)
			}
		} else {
			sys.Background(StageRR, res.Makespan)
		}
	case BackgroundMakespanRR:
		sys.Background(StageRR, res.Makespan)
	case BackgroundFirstLatency:
		sys.Background(s.BackgroundLabel, res.Latency)
	}
	return res, nil
}

func (s RunSpec) name() string {
	if s.Name != "" {
		return s.Name
	}
	return "run"
}

// runOptions collects the execution knobs shared by every experiment
// entry point.
type runOptions struct {
	ctx      context.Context
	workers  int
	pool     *runner.Pool
	progress func(done, total int, name string)
	metrics  *metrics.Options
	observe  func(run string, res *RunResult)
	qtrace   *qtrace.Options
	qobserve func(run string, res *RunResult)
	// clusterObs/clObserve attach barrier-driven observability to cluster
	// experiments (see WithClusterObs in clustersweep.go).
	clusterObs *metrics.Options
	clObserve  ClusterObserver
}

// Option adjusts how an experiment executes its runs (not what it
// simulates): worker count, shared concurrency pool, cancellation
// context, progress reporting.
type Option func(*runOptions)

// WithWorkers bounds the experiment's private worker pool (<= 0 means
// GOMAXPROCS). Ignored when a shared pool is set.
func WithWorkers(n int) Option { return func(o *runOptions) { o.workers = n } }

// WithPool runs the experiment's simulations on a concurrency budget
// shared with other experiments — how `reachsim -exp all -j N` bounds the
// whole evaluation at N in-flight simulations.
func WithPool(p *runner.Pool) Option { return func(o *runOptions) { o.pool = p } }

// WithContext attaches a cancellation context to the runs.
func WithContext(ctx context.Context) Option { return func(o *runOptions) { o.ctx = ctx } }

// WithProgress reports each completed run. The callback is serialised.
func WithProgress(fn func(done, total int, name string)) Option {
	return func(o *runOptions) { o.progress = fn }
}

// WithMetrics attaches a time-resolved observability recorder to every
// RunSpec of the experiment that does not already carry one, and — after
// all runs complete — reports each sampled result through observe, in spec
// order (deterministic regardless of worker count). observe may be nil
// when the caller reads recorders off the experiment's own result type.
// Experiments whose unit of work is not a RunSpec (recall sweep,
// motivation, buffer ablation) have no simulation engine to sample and
// ignore this option.
func WithMetrics(mo metrics.Options, observe func(run string, res *RunResult)) Option {
	return func(o *runOptions) {
		o.metrics = &mo
		o.observe = observe
	}
}

// WithQTrace attaches a per-query trace log to every RunSpec of the
// experiment that does not already carry one, and — after all runs
// complete — reports each traced result through observe in spec order
// (deterministic regardless of worker count). observe may be nil when the
// caller reads logs off the experiment's own result type. Same scope as
// WithMetrics: experiments whose unit of work is not a RunSpec ignore it.
func WithQTrace(qo qtrace.Options, observe func(run string, res *RunResult)) Option {
	return func(o *runOptions) {
		o.qtrace = &qo
		o.qobserve = observe
	}
}

func buildOptions(opts []Option) runOptions {
	o := runOptions{ctx: context.Background()}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

func (o runOptions) runnerOptions(name func(i int) string) runner.Options {
	ro := runner.Options{Workers: o.workers, Pool: o.pool}
	if o.progress != nil {
		progress := o.progress
		ro.Progress = func(e runner.Event) { progress(e.Done, e.Total, name(e.Index)) }
	}
	return ro
}

// RunSpecs executes the specs on the parallel runner and returns their
// results in spec order, regardless of completion order. The first
// failing spec cancels the rest.
func RunSpecs(specs []RunSpec, opts ...Option) ([]*RunResult, error) {
	o := buildOptions(opts)
	if o.metrics != nil || o.qtrace != nil {
		// Copy before instrumenting: the caller's slice stays untouched.
		instrumented := append([]RunSpec(nil), specs...)
		for i := range instrumented {
			if o.metrics != nil && instrumented[i].Metrics == nil {
				instrumented[i].Metrics = o.metrics
			}
			if o.qtrace != nil {
				switch {
				case instrumented[i].QTrace == nil:
					instrumented[i].QTrace = o.qtrace
				case len(instrumented[i].QTrace.Observers) == 0 && len(o.qtrace.Observers) > 0:
					// Observers are an execution knob, not part of the
					// spec: specs carrying their own trace options (the
					// tail-latency sweep) still feed the caller's live
					// observers. Copy so the spec's Options stay untouched.
					qo := *instrumented[i].QTrace
					qo.Observers = o.qtrace.Observers
					instrumented[i].QTrace = &qo
				}
			}
		}
		specs = instrumented
	}
	res, err := runner.Map(o.ctx, o.runnerOptions(func(i int) string { return specs[i].name() }), specs,
		func(_ context.Context, _ int, s RunSpec) (*RunResult, error) { return s.Run() })
	if err == nil && o.observe != nil {
		for i, r := range res {
			if r != nil && r.Obs != nil {
				o.observe(specs[i].name(), r)
			}
		}
	}
	if err == nil && o.qobserve != nil {
		for i, r := range res {
			if r != nil && r.QLog != nil {
				o.qobserve(specs[i].name(), r)
			}
		}
	}
	return res, err
}

// mapRuns fans an arbitrary per-item function over the runner with the
// experiment options — for the functional-layer experiments (recall,
// motivation, buffer ablation) whose unit of work is not a RunSpec.
func mapRuns[S, R any](o runOptions, items []S, name func(i int) string, fn func(item S) (R, error)) ([]R, error) {
	return runner.Map(o.ctx, o.runnerOptions(name), items,
		func(_ context.Context, _ int, item S) (R, error) { return fn(item) })
}
