package experiments

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/qtrace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TailPoint is one offered-rate measurement of the tail-latency sweep:
// sketch quantiles over every completed query plus an attribution summary
// of the queries above the p99 estimate.
type TailPoint struct {
	OfferedQPS float64
	Completed  uint64

	Mean sim.Time
	P50  sim.Time
	P95  sim.Time
	P99  sim.Time
	P999 sim.Time

	// TailCount is how many queries finished above the p99 estimate.
	TailCount int
	// TailQueueShare is the fraction of those whose dominant phase is
	// queue wait — the signature of a saturated stage.
	TailQueueShare float64
	// TailStage/TailLevel name the modal dominant (stage, level) among the
	// over-p99 queries: where the slowest queries spent most of their lives.
	TailStage string
	TailLevel string
}

// TailRatio is p99 over p50 — the divergence measure: near 1 on an
// unloaded system, growing without bound past saturation.
func (p *TailPoint) TailRatio() float64 {
	if p.P50 <= 0 {
		return 0
	}
	return float64(p.P99) / float64(p.P50)
}

// TailLatencyResult is one mapping's sweep: latency quantiles versus
// offered queries per second under Poisson open-loop arrivals.
type TailLatencyResult struct {
	Option string
	Points []*TailPoint
	// Runs holds the per-rate results (carrying RunResult.QLog) for
	// per-query export and trace lanes.
	Runs []*RunResult
}

// Defaults for the two-mapping comparison: rates climbing toward the
// on-chip baseline's saturation point (its ~0.6 s service time saturates a
// single instance below 2 q/s, while ReACH's pipeline stays lightly
// loaded), enough queries per rate for a meaningful p99, and a fixed seed
// so the sweep is reproducible.
const (
	DefaultTailBatches = 96
	DefaultTailSeed    = 1
)

// DefaultTailRates approaches on-chip saturation while ReACH stays bounded.
func DefaultTailRates() []float64 { return []float64{0.25, 0.5, 1, 1.5} }

// tailLatencySpecs is the run matrix: one Poisson open-loop run per
// offered rate, each with a per-query trace log attached.
func tailLatencySpecs(m workload.Model, mp Mapping, n int, rates []float64, batches int, seed int64) []RunSpec {
	arr := ArrivalSpec{Process: ArrivalPoisson, Seed: seed}
	specs := make([]RunSpec, len(rates))
	for i, rate := range rates {
		specs[i] = RunSpec{
			Name:      fmt.Sprintf("taillatency %.2f q/s", rate),
			Model:     m,
			Mapping:   mp,
			Instances: n,
			Batches:   batches,
			SubmitAt:  arr.schedule(rate, batches, int64(i)),
			QTrace:    &qtrace.Options{},
		}
	}
	return specs
}

// tailPoint reduces one rate's run to its quantiles and tail attribution.
func tailPoint(rate float64, run *RunResult) *TailPoint {
	sk := run.QLog.Sketch()
	p := &TailPoint{
		OfferedQPS: rate,
		Completed:  sk.Count(),
		Mean:       sk.Mean(),
		P50:        sk.Quantile(0.5),
		P95:        sk.Quantile(0.95),
		P99:        sk.Quantile(0.99),
		P999:       sk.Quantile(0.999),
	}
	type key struct{ stage, level string }
	modal := map[key]int{}
	queue := 0
	for _, q := range run.QLog.Queries() {
		if !q.Completed() || q.Latency() <= p.P99 {
			continue
		}
		p.TailCount++
		dom := q.Dominant()
		if dom.Phase == qtrace.PhaseQueue {
			queue++
		}
		modal[key{dom.Stage, dom.Level}]++
	}
	if p.TailCount > 0 {
		p.TailQueueShare = float64(queue) / float64(p.TailCount)
		// Modal (stage, level), ties broken by name so the reduction is
		// deterministic.
		keys := make([]key, 0, len(modal))
		for k := range modal {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if modal[keys[i]] != modal[keys[j]] {
				return modal[keys[i]] > modal[keys[j]]
			}
			if keys[i].stage != keys[j].stage {
				return keys[i].stage < keys[j].stage
			}
			return keys[i].level < keys[j].level
		})
		p.TailStage, p.TailLevel = keys[0].stage, keys[0].level
	}
	return p
}

// TailLatency sweeps offered load with seeded Poisson open-loop arrivals
// and reduces each rate's per-query trace log to latency quantiles with
// tail attribution.
func TailLatency(m workload.Model, mp Mapping, n int, rates []float64, batches int, seed int64, opts ...Option) (*TailLatencyResult, error) {
	runs, err := RunSpecs(tailLatencySpecs(m, mp, n, rates, batches, seed), opts...)
	if err != nil {
		return nil, err
	}
	res := &TailLatencyResult{Runs: runs}
	for i, rate := range rates {
		res.Points = append(res.Points, tailPoint(rate, runs[i]))
	}
	return res, nil
}

// TailLatencyBoth runs the sweep for the on-chip baseline and the ReACH
// mapping — the tail-latency view of the paper's throughput claim: past
// the baseline's saturation its p99/p50 diverges while the hierarchy's
// stays bounded, and the over-p99 queries name the saturated stage's
// queue as their dominant phase.
func TailLatencyBoth(m workload.Model, opts ...Option) (onchip, reach *TailLatencyResult, err error) {
	onchip, err = TailLatency(m, SingleLevel(accel.OnChip), 1,
		DefaultTailRates(), DefaultTailBatches, DefaultTailSeed, opts...)
	if err != nil {
		return nil, nil, err
	}
	onchip.Option = "onchip"
	reach, err = TailLatency(m, ReACHMapping(), 4,
		DefaultTailRates(), DefaultTailBatches, DefaultTailSeed, opts...)
	if err != nil {
		return nil, nil, err
	}
	reach.Option = "ReACH"
	return onchip, reach, nil
}

// TailLatencyTable renders both options side by side with the divergence
// ratio and a tail-attribution note for the most loaded point.
func TailLatencyTable(onchip, reach *TailLatencyResult) *report.Table {
	t := &report.Table{
		Title: "Tail latency — quantiles vs offered QPS (Poisson open loop)",
		Columns: []string{"Offered q/s",
			"onchip p50 ms", "onchip p99 ms", "onchip p99/p50",
			"ReACH p50 ms", "ReACH p99 ms", "ReACH p99/p50"},
	}
	for i := range onchip.Points {
		o, r := onchip.Points[i], reach.Points[i]
		t.AddRow(
			report.F(o.OfferedQPS, 2),
			report.F(o.P50.Milliseconds(), 0),
			report.F(o.P99.Milliseconds(), 0),
			report.F(o.TailRatio(), 2),
			report.F(r.P50.Milliseconds(), 0),
			report.F(r.P99.Milliseconds(), 0),
			report.F(r.TailRatio(), 2),
		)
	}
	if n := len(onchip.Points); n > 0 {
		last := onchip.Points[n-1]
		if last.TailCount > 0 {
			t.AddNote("onchip tail at %.2f q/s: %.0f%% of the %d over-p99 queries dominated by queue wait (modal: %s at %s)",
				last.OfferedQPS, last.TailQueueShare*100, last.TailCount,
				last.TailStage, last.TailLevel)
		}
		rlast := reach.Points[n-1]
		t.AddNote("p99/p50 at %.2f q/s: onchip %.2f, ReACH %.2f",
			last.OfferedQPS, last.TailRatio(), rlast.TailRatio())
	}
	return t
}
