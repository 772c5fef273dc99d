// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation section. Each benchmark runs
// the corresponding experiment end to end on the simulator and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. The rendered tables themselves come
// from `go run ./cmd/reachsim -exp all`.
package repro

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

func BenchmarkTableI(b *testing.B) {
	m := workload.DefaultModel()
	for i := 0; i < b.N; i++ {
		rows := workload.TableI(m)
		if len(rows) != 4 {
			b.Fatal("Table I wrong shape")
		}
	}
	b.ReportMetric(float64(m.FeatureStoreBytes())/1e9, "featurestore_GB")
	b.ReportMetric(float64(m.CentroidStoreBytes())/1e9, "centroids_GB")
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableII(config.Default())
		if len(t.Rows) == 0 {
			b.Fatal("empty Table II")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableIII()
		if len(t.Rows) != 6 {
			b.Fatal("Table III wrong shape")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableIV(energy.DefaultCosts())
		if len(t.Rows) == 0 {
			b.Fatal("empty Table IV")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	m := workload.DefaultModel()
	var movement, rerank float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(m)
		if err != nil {
			b.Fatal(err)
		}
		movement = r.MovementShare
		rerank = r.StageMovement[workload.StageRR]
	}
	b.ReportMetric(movement*100, "movement_%")
	b.ReportMetric(rerank*100, "rerank_movement_%")
}

func benchStageSweep(b *testing.B, fig func(workload.Model, ...experiments.Option) (*experiments.StageSweep, error)) *experiments.StageSweep {
	b.Helper()
	m := workload.DefaultModel()
	var sweep *experiments.StageSweep
	for i := 0; i < b.N; i++ {
		s, err := fig(m)
		if err != nil {
			b.Fatal(err)
		}
		sweep = s
	}
	return sweep
}

func BenchmarkFig9(b *testing.B) {
	s := benchStageSweep(b, experiments.Fig9)
	b.ReportMetric(s.NormRuntime(accel.NearMemory, 1), "NM1_runtime_x")
	b.ReportMetric(s.NormRuntime(accel.NearMemory, 16), "NM16_runtime_x")
	b.ReportMetric(s.NormEnergy(accel.NearMemory, 4), "NM4_energy_x")
}

func BenchmarkFig10(b *testing.B) {
	s := benchStageSweep(b, experiments.Fig10)
	b.ReportMetric(s.NormRuntime(accel.NearMemory, 1), "NM1_runtime_x")
	b.ReportMetric(s.NormRuntime(accel.NearMemory, 2), "NM2_runtime_x")
	b.ReportMetric(s.NormEnergy(accel.NearMemory, 4), "NM4_energy_x")
}

func BenchmarkFig11(b *testing.B) {
	s := benchStageSweep(b, experiments.Fig11)
	b.ReportMetric(s.NormRuntime(accel.NearMemory, 16), "NM16_runtime_x")
	b.ReportMetric(s.NormRuntime(accel.NearStorage, 16), "NS16_runtime_x")
	b.ReportMetric(s.NormEnergy(accel.NearStorage, 4), "NS4_energy_x")
}

func BenchmarkFig12(b *testing.B) {
	m := workload.DefaultModel()
	var nm4, ns4 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(m)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Cells {
			norm := float64(c.Runtime) / float64(r.Baseline.Runtime)
			if c.Instances == 4 {
				switch c.Level {
				case accel.NearMemory:
					nm4 = norm
				case accel.NearStorage:
					ns4 = norm
				}
			}
		}
	}
	b.ReportMetric(nm4, "NM4_runtime_x")
	b.ReportMetric(ns4, "NS4_runtime_x")
}

func BenchmarkFig13(b *testing.B) {
	m := workload.DefaultModel()
	var tput, lat, er float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(m)
		if err != nil {
			b.Fatal(err)
		}
		idx := r.ReACH()
		tput = r.ThroughputGain(idx)
		lat = r.LatencyGain(idx)
		er = r.EnergyReduction(idx)
	}
	b.ReportMetric(tput, "throughput_x(paper:4.5)")
	b.ReportMetric(lat, "latency_x(paper:2.2)")
	b.ReportMetric(er*100, "energy_reduction_%(paper:52)")
}

func BenchmarkAblationGAM(b *testing.B) {
	m := workload.DefaultModel()
	var pipelineGain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationGAM(m)
		if err != nil {
			b.Fatal(err)
		}
		base := r.Cells[0]
		for _, c := range r.Cells {
			if strings.HasPrefix(c.Variant.Name, "no cross-job") {
				pipelineGain = base.Throughput / c.Throughput
			}
		}
	}
	b.ReportMetric(pipelineGain, "pipelining_gain_x")
}

func BenchmarkAblationMapping(b *testing.B) {
	m := workload.DefaultModel()
	var bestIsReACH float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationMapping(m)
		if err != nil {
			b.Fatal(err)
		}
		if r.Best().Mapping == experiments.ReACHMapping() {
			bestIsReACH = 1
		}
	}
	b.ReportMetric(bestIsReACH, "reach_mapping_ranks_first")
}

func BenchmarkMotivation(b *testing.B) {
	var exactRecall, pqRecall float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Motivation()
		if err != nil {
			b.Fatal(err)
		}
		exactRecall = r.Rows[0].Recall
		pqRecall = r.Rows[1].Recall
	}
	b.ReportMetric(exactRecall, "exact_recall@10")
	b.ReportMetric(pqRecall, "pq8B_recall@10")
}

func BenchmarkLoadSweep(b *testing.B) {
	m := workload.DefaultModel()
	var ratio float64
	for i := 0; i < b.N; i++ {
		onchip, reach, err := experiments.LoadSweepBoth(m)
		if err != nil {
			b.Fatal(err)
		}
		const bound = 2 * sim.Second
		ratio = reach.SaturationRate(bound) / onchip.SaturationRate(bound)
	}
	b.ReportMetric(ratio, "sustainable_rate_x")
}

func BenchmarkSkew(b *testing.B) {
	m := workload.DefaultModel()
	var worst, fixed float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.SkewExperiment(m)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Cells {
			if c.Zipf == 1.2 {
				if c.Placement.String() == "contiguous" {
					worst = c.Throughput
				} else {
					fixed = c.Throughput
				}
			}
		}
	}
	b.ReportMetric(worst, "skewed_naive_bps")
	b.ReportMetric(fixed, "skewed_balanced_bps")
}

func BenchmarkReverseLookup(b *testing.B) {
	m := workload.DefaultModel()
	var cost float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ReverseLookup(m)
		if err != nil {
			b.Fatal(err)
		}
		cost = r.ThroughputCost()
	}
	b.ReportMetric(cost*100, "throughput_cost_%")
}

// BenchmarkClusterScatterGather runs the full cluster scale-out sweep
// (2/4 nodes x hash/rr/p2c x three Poisson rates) and reports the headline
// routing-policy payoff: hash p99 over p2c p99 at the largest swept
// deployment and rate.
func BenchmarkClusterScatterGather(b *testing.B) {
	m := workload.DefaultModel()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DefaultClusterSweep(m)
		if err != nil {
			b.Fatal(err)
		}
		nodes := experiments.DefaultClusterNodeCounts()
		rates := experiments.DefaultClusterRates()
		maxNodes, maxRate := nodes[len(nodes)-1], rates[len(rates)-1]
		hash := res.Point(maxNodes, "hash", maxRate)
		p2c := res.Point(maxNodes, "p2c", maxRate)
		if hash == nil || p2c == nil || p2c.P99 <= 0 {
			b.Fatal("sweep missing hash/p2c cells at peak")
		}
		ratio = float64(hash.P99) / float64(p2c.P99)
	}
	b.ReportMetric(ratio, "hash_over_p2c_p99_x")
}

// BenchmarkClusterCachedScatterGather runs the front-end cache sweep
// (off/8/32 entries x two TTLs x two skews x two Poisson rates) and
// reports the headline caching payoff: cache-off p99 over the best cached
// p99 at the heaviest (skew, rate) corner, plus that cell's hit rate.
func BenchmarkClusterCachedScatterGather(b *testing.B) {
	m := workload.DefaultModel()
	var ratio, hitRate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DefaultCacheSweep(m)
		if err != nil {
			b.Fatal(err)
		}
		skews := experiments.DefaultCacheSkews()
		rates := experiments.DefaultCacheRates()
		maxSkew, maxRate := skews[len(skews)-1], rates[len(rates)-1]
		off := res.Point(0, 0, maxSkew, maxRate)
		var best *experiments.CachePoint
		for _, p := range res.Points {
			if p.Entries == 0 || p.Skew != maxSkew || p.OfferedQPS != maxRate {
				continue
			}
			if best == nil || p.P99 < best.P99 {
				best = p
			}
		}
		if off == nil || best == nil || best.P99 <= 0 {
			b.Fatal("sweep missing off/cached cells at peak")
		}
		ratio = float64(off.P99) / float64(best.P99)
		hitRate = best.Cache.HitRate
	}
	b.ReportMetric(ratio, "off_over_cached_p99_x")
	b.ReportMetric(hitRate*100, "best_hit_rate_%")
}

// runFullEvaluation executes every simulator-backed experiment once with at
// most `workers` simulations in flight across all of them — the same shape
// as `reachsim -exp all -j workers`.
func runFullEvaluation(workers int) error {
	m := workload.DefaultModel()
	pool := runner.NewPool(workers)
	opt := experiments.WithPool(pool)
	entries := []func() error{
		func() error { _, err := experiments.Fig8(m, opt); return err },
		func() error { _, err := experiments.Fig9(m, opt); return err },
		func() error { _, err := experiments.Fig10(m, opt); return err },
		func() error { _, err := experiments.Fig11(m, opt); return err },
		func() error { _, err := experiments.Fig12(m, opt); return err },
		func() error { _, err := experiments.Fig13(m, opt); return err },
		func() error { _, err := experiments.AblationGAM(m, opt); return err },
		func() error { _, err := experiments.AblationMapping(m, opt); return err },
		func() error { _, err := experiments.AblationGranularity(m, opt); return err },
		func() error { _, err := experiments.AblationNSBuffer(m, opt); return err },
		func() error { _, _, err := experiments.LoadSweepBoth(m, opt); return err },
		func() error { _, err := experiments.SkewExperiment(m, opt); return err },
		func() error { _, err := experiments.ReverseLookup(m, opt); return err },
		func() error { _, err := experiments.MultiTenant(m, opt); return err },
	}
	// The outer fan-out has one slot per entry: only leaf simulations hold
	// the shared pool's slots.
	_, err := runner.Map(context.Background(), runner.Options{Pool: runner.NewPool(len(entries))}, entries,
		func(_ context.Context, _ int, fn func() error) (struct{}, error) {
			return struct{}{}, fn()
		})
	return err
}

// BenchmarkFullEvaluation measures the whole evaluation's wall clock
// serially (-j 1) and on the default pool (-j GOMAXPROCS) — the headline
// numbers for the parallel runner.
func BenchmarkFullEvaluation(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := runFullEvaluation(bc.workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}
