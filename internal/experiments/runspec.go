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
// which workload and mapping to run on it and how many batch jobs to
// submit; every run charges standby power by the same rule (see Run).
// Every experiment in this package is a slice of RunSpecs plus a pure
// reducer over the resulting []*RunResult; RunSpecs executes the slice on
// the shared parallel runner. Each run owns its own core.System and event
// engine, so runs are independent and the results are byte-for-byte
// identical whatever the pool size.
type RunSpec struct {
	// Name labels the run in progress reports and errors.
	Name string
	// Model is the CBIR workload model; it is validated before the run.
	Model workload.Model
	// Mapping assigns pipeline stages to compute levels. Used by the
	// default job builder and, with Instances, by the system config.
	Mapping Mapping
	// Instances is the near-data population per used level for the
	// system config (configFor semantics).
	Instances int
	// Batches is the number of jobs submitted (ids 0..Batches-1).
	Batches int

	// Mutate, when non-nil, adjusts the config before the system is
	// built — how the ablations vary GAM parameters per run.
	Mutate func(*config.SystemConfig)
	// BuildJob, when non-nil, replaces the default pipeline job builder
	// (BuildPipelineJob with Mapping) — how the granularity, skew,
	// reverse-lookup and multi-tenant experiments shape their jobs.
	BuildJob func(sys *core.System, id int) (*core.Job, error)
	// SubmitAt, when non-nil, schedules job id's submission at the
	// returned simulated time instead of submitting everything at t=0 —
	// the open-loop arrival processes of the load sweep.
	SubmitAt func(id int) sim.Time

	// Metrics, when non-nil, attaches a time-resolved observability
	// recorder to the run: a periodic registry sampler and (when
	// Metrics.Spans is set) the GAM decision-span log. The recorder rides
	// back on RunResult.Obs. Nil — the default — leaves the run entirely
	// uninstrumented, so results are byte-identical to pre-metrics builds.
	Metrics *metrics.Options

	// QTrace, when non-nil, attaches a per-query trace log to the run: every
	// job gets a recorded timeline of phase intervals, and the tail-latency
	// quantiles are read off its completed queries. The log rides back on
	// RunResult.QLog.
	// Nil — the default — keeps the GAM's query hooks at a single nil check.
	QTrace *qtrace.Options
}

// Run executes the spec to completion and returns its result. It is the
// single-run core under RunPipeline, RunStage and every sweep. After the
// simulation drains it charges standby — the DRAM background and SSD idle
// power of core.System.Background — over the makespan.
func (s RunSpec) Run() (*RunResult, error) {
	if err := s.Model.Validate(); err != nil {
		return nil, err
	}
	if s.Batches <= 0 {
		return nil, fmt.Errorf("experiments: run %q needs at least one batch", s.Name)
	}
	sys, err := s.system()
	if err != nil {
		return nil, err
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
		j, err := s.job(sys, b)
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
	// windows, for the figure reducers and the standby split.
	windows := stageWindows(res.Jobs[:1], func(n *core.TaskNode) sim.Time { return n.CompletedAt })
	var totalSpan sim.Time
	for _, w := range windows {
		res.StageSpan[w.Name] = w.End - w.Start
		totalSpan += w.End - w.Start
	}

	// Split the standby charge across stages by the first batch's stage
	// spans, so the Fig. 8 stacking has a home for it.
	for _, w := range windows {
		frac := float64(w.End-w.Start) / float64(totalSpan)
		sys.Background(w.Name, sim.Time(float64(res.Makespan)*frac))
	}
	return res, nil
}

// system builds the spec's system: configFor(Mapping, Instances), then
// Mutate.
func (s RunSpec) system() (*core.System, error) {
	cfg := configFor(s.Mapping, s.Instances)
	if s.Mutate != nil {
		s.Mutate(&cfg)
	}
	return core.NewSystem(cfg)
}

// job builds batch id's job graph on sys: BuildJob when set, else the
// pipeline under Mapping.
func (s RunSpec) job(sys *core.System, id int) (*core.Job, error) {
	if s.BuildJob != nil {
		return s.BuildJob(sys, id)
	}
	return BuildPipelineJob(sys, id, s.Model, s.Mapping)
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
	pool     *runner.Pool
	progress func(done, total int, name string)
	metrics  *metrics.Options
	observe  func(run string, series metrics.Source, phases []metrics.PhaseWindow)
	qtrace   bool
	qobserve func(run string, res *RunResult)
}

// Option adjusts how an experiment executes its runs (not what it
// simulates): concurrency pool, progress reporting, observability.
type Option func(*runOptions)

// WithPool runs the experiment's simulations on the given concurrency
// budget instead of a private pool of GOMAXPROCS slots. Experiments that
// share one pool share its budget — how `reachsim -exp all -j N` bounds
// the whole evaluation at N in-flight simulations.
func WithPool(p *runner.Pool) Option { return func(o *runOptions) { o.pool = p } }

// WithProgress reports each completed run. The callback is serialised.
func WithProgress(fn func(done, total int, name string)) Option {
	return func(o *runOptions) { o.progress = fn }
}

// WithMetrics samples every simulation of the experiment and, after all
// of them complete, reports each one through observe in declaration order
// (deterministic regardless of worker count). A RunSpec that does not
// already carry a recorder gets the event-loop Sampler, reported with the
// phase windows its bottleneck attribution reads. A cluster-sweep cell
// owns a MultiEngine, so it gets the barrier-driven MultiSampler instead,
// reported with nil phases; barrier sampling schedules no events, so the
// sweep's results are those of an unsampled run. observe may be nil when
// the caller reads recorders off the experiment's own result type; cells,
// whose results carry none, are then not sampled. Experiments whose unit
// of work is neither (recall sweep, motivation, buffer ablation) have no
// simulation engine to sample and ignore this option.
func WithMetrics(mo metrics.Options, observe func(run string, series metrics.Source, phases []metrics.PhaseWindow)) Option {
	return func(o *runOptions) {
		o.metrics = &mo
		o.observe = observe
	}
}

// WithQTrace attaches a per-query trace log to every RunSpec of the
// experiment that does not already carry one, and — after all runs
// complete — reports each traced result through observe in spec order
// (deterministic regardless of worker count). observe may be nil when the
// caller reads logs off the experiment's own result type. Experiments
// whose unit of work is not a RunSpec ignore it.
func WithQTrace(observe func(run string, res *RunResult)) Option {
	return func(o *runOptions) {
		o.qtrace = true
		o.qobserve = observe
	}
}

func buildOptions(opts []Option) runOptions {
	var o runOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

func (o runOptions) runnerOptions(name func(i int) string) runner.Options {
	ro := runner.Options{Pool: o.pool}
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
	if o.metrics != nil || o.qtrace {
		// Copy before instrumenting: the caller's slice stays untouched.
		instrumented := append([]RunSpec(nil), specs...)
		for i := range instrumented {
			if o.metrics != nil && instrumented[i].Metrics == nil {
				instrumented[i].Metrics = o.metrics
			}
			if o.qtrace && instrumented[i].QTrace == nil {
				instrumented[i].QTrace = &qtrace.Options{}
			}
		}
		specs = instrumented
	}
	res, err := runner.Map(context.Background(), o.runnerOptions(func(i int) string { return specs[i].name() }), specs,
		func(_ context.Context, _ int, s RunSpec) (*RunResult, error) { return s.Run() })
	if err == nil && o.observe != nil {
		for i, r := range res {
			if r != nil && r.Obs != nil {
				o.observe(specs[i].name(), r.Obs.Sampler, r.PhaseWindows())
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
	return runner.Map(context.Background(), o.runnerOptions(name), items,
		func(_ context.Context, _ int, item S) (R, error) { return fn(item) })
}
