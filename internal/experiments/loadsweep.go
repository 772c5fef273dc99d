package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ArrivalProcess selects how a sweep's open-loop arrivals are spaced.
type ArrivalProcess int

const (
	// ArrivalFixed submits job id at id/rate — evenly spaced arrivals, the
	// default and the golden path every pinned output was produced with.
	ArrivalFixed ArrivalProcess = iota
	// ArrivalPoisson draws i.i.d. exponential inter-arrival gaps with mean
	// 1/rate from a seeded source — a memoryless open loop whose burstiness
	// exposes tail latency the way production traffic does.
	ArrivalPoisson
	// ArrivalFlash is a flash crowd: Poisson arrivals at the baseline rate,
	// except arrivals [1/3, 2/3) of the query sequence come flashFactor×
	// faster — baseline → burst → baseline. The gaps are precomputed from
	// the same seeded source as ArrivalPoisson, so the anomaly is exactly
	// reproducible: the deterministic trigger the flight recorder's
	// detectors are validated against.
	ArrivalFlash
)

// ArrivalSpec is a sweep's arrival-process configuration. The zero value is
// the fixed-interval golden path.
type ArrivalSpec struct {
	Process ArrivalProcess
	// Seed seeds the Poisson gap sequence. Each rate in a sweep derives its
	// own stream from Seed and the rate's index, so every run is
	// reproducible and independent of worker scheduling.
	Seed int64
}

// flashFactor multiplies the baseline rate during an ArrivalFlash burst.
const flashFactor = 8

// schedule builds job id → submission time for one rate. Poisson arrival
// times are precomputed sequentially here, in the spec builder, so the
// resulting SubmitAt closure is a pure table lookup and sweep results stay
// byte-identical at any -j.
func (a ArrivalSpec) schedule(rate float64, batches int, stream int64) func(id int) sim.Time {
	if a.Process == ArrivalFixed {
		interval := sim.FromSeconds(1 / rate)
		return func(id int) sim.Time { return sim.Time(id) * interval }
	}
	rng := rand.New(rand.NewSource(a.Seed ^ stream*0x5851f42d4c957f2d))
	times := make([]sim.Time, batches)
	at := 0.0
	for i := range times {
		r := rate
		if a.Process == ArrivalFlash {
			if frac := float64(i) / float64(batches); frac >= 1.0/3 && frac < 2.0/3 {
				r = rate * flashFactor
			}
		}
		at += rng.ExpFloat64() / r
		times[i] = sim.FromSeconds(at)
	}
	return func(id int) sim.Time { return times[id] }
}

// LoadPoint is one offered-load measurement.
type LoadPoint struct {
	OfferedBatchesPerSec float64
	MeanLatency          sim.Time
	P99Latency           sim.Time
	Completed            int
}

// LoadSweepResult measures query latency under open-loop batch arrivals —
// the service-level view of the paper's throughput claim ("throughput is
// crucial to user experience", §I): the ReACH mapping sustains ~4.5× the
// arrival rate of on-chip acceleration before latency diverges.
type LoadSweepResult struct {
	Option string
	Points []*LoadPoint
}

// loadSweepSpecs is the run matrix: one open-loop run per offered rate,
// arrivals scheduled via SubmitAt under the arrival spec.
func loadSweepSpecs(m workload.Model, mp Mapping, n int, rates []float64, batches int, arr ArrivalSpec) []RunSpec {
	specs := make([]RunSpec, len(rates))
	for i, rate := range rates {
		specs[i] = RunSpec{
			Name:      fmt.Sprintf("loadsweep %.2f b/s", rate),
			Model:     m,
			Mapping:   mp,
			Instances: n,
			Batches:   batches,
			SubmitAt:  arr.schedule(rate, batches, int64(i)),
		}
	}
	return specs
}

// loadPoint reduces one rate's run to its latency statistics.
func loadPoint(rate float64, run *RunResult) *LoadPoint {
	hist := sim.NewHistogram()
	for _, j := range run.Jobs {
		hist.Add(j.Latency())
	}
	return &LoadPoint{
		OfferedBatchesPerSec: rate,
		MeanLatency:          hist.Mean(),
		P99Latency:           hist.Quantile(0.99),
		Completed:            hist.Count(),
	}
}

// LoadSweep submits `batches` jobs at a fixed arrival interval and
// records completion latencies for each offered rate.
func LoadSweep(m workload.Model, mp Mapping, n int, rates []float64, batches int, opts ...Option) (*LoadSweepResult, error) {
	runs, err := RunSpecs(loadSweepSpecs(m, mp, n, rates, batches, ArrivalSpec{}), opts...)
	if err != nil {
		return nil, err
	}
	res := &LoadSweepResult{}
	for i, rate := range rates {
		res.Points = append(res.Points, loadPoint(rate, runs[i]))
	}
	return res, nil
}

// DefaultLoadRates spans from light load past the on-chip saturation point
// toward the ReACH one.
func DefaultLoadRates() []float64 {
	return []float64{0.5, 1, 1.5, 2, 3, 4, 5, 6, 7}
}

// LoadSweepBoth runs the sweep for the on-chip baseline and the ReACH
// mapping.
func LoadSweepBoth(m workload.Model, opts ...Option) (onchip, reach *LoadSweepResult, err error) {
	onchip, err = LoadSweep(m, SingleLevel(accel.OnChip), 1, DefaultLoadRates(), 24, opts...)
	if err != nil {
		return nil, nil, err
	}
	onchip.Option = "onchip"
	reach, err = LoadSweep(m, ReACHMapping(), 4, DefaultLoadRates(), 24, opts...)
	if err != nil {
		return nil, nil, err
	}
	reach.Option = "ReACH"
	return onchip, reach, nil
}

// SaturationRate reports the highest offered rate whose mean latency stays
// under `bound` — the sustainable service rate.
func (r *LoadSweepResult) SaturationRate(bound sim.Time) float64 {
	best := 0.0
	for _, p := range r.Points {
		if p.MeanLatency <= bound && p.OfferedBatchesPerSec > best {
			best = p.OfferedBatchesPerSec
		}
	}
	return best
}

// LoadSweepTable renders both options side by side.
func LoadSweepTable(onchip, reach *LoadSweepResult) *report.Table {
	t := &report.Table{
		Title: "Load sweep — batch latency vs offered arrival rate (open loop)",
		Columns: []string{"Offered b/s", "onchip mean ms", "onchip p99 ms",
			"ReACH mean ms", "ReACH p99 ms"},
	}
	for i := range onchip.Points {
		o, rr := onchip.Points[i], reach.Points[i]
		t.AddRow(
			report.F(o.OfferedBatchesPerSec, 1),
			report.F(o.MeanLatency.Milliseconds(), 0),
			report.F(o.P99Latency.Milliseconds(), 0),
			report.F(rr.MeanLatency.Milliseconds(), 0),
			report.F(rr.P99Latency.Milliseconds(), 0),
		)
	}
	bound := 2 * sim.Second
	t.AddNote("sustainable rate (mean < 2 s): onchip %.1f b/s, ReACH %.1f b/s (%.1fx)",
		onchip.SaturationRate(bound), reach.SaturationRate(bound),
		reach.SaturationRate(bound)/onchip.SaturationRate(bound))
	return t
}
