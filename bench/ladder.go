package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cbir"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The ladder times isolated public calls, one per layer from the event
// engine up to a cluster query and the CBIR kernels, so a per-layer change
// shows up as a per-layer number whatever the workload.

// ladderSample is how long one timed sample runs, and ladderSamples how
// many samples a step takes; a step reports their median.
const (
	ladderSample  = 40 * time.Millisecond
	ladderSamples = 5
)

// ladderStep is one isolated call. make builds its state and returns an
// op that does some work and reports how many operations it did.
type ladderStep struct {
	name  string  // metric name
	scale float64 // ns per op → metric unit
	make  func() (op func() int, err error)
}

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink float32

// chain re-schedules itself until n events have fired.
type chain struct{ count, n int }

func (h *chain) Fire(e *sim.Engine, _ uint64) {
	h.count++
	if h.count < h.n {
		e.ScheduleCall(sim.Nanosecond, h, 0)
	}
}

var ladder = []ladderStep{
	{"sim.engine_ns_per_event", 1, func() (func() int, error) {
		e := sim.NewEngine()
		h := &chain{}
		return func() int {
			h.count, h.n = 0, 10000
			e.ScheduleCall(0, h, 0)
			e.Run()
			return h.n
		}, nil
	}},
	{"sim.link_ns_per_transfer", 1, func() (func() int, error) {
		l := sim.NewLink(sim.NewEngine(), "bench.link", 1e9, 0)
		return func() int {
			for i := 0; i < 1000; i++ {
				l.Transfer(4096)
			}
			return 1000
		}, nil
	}},
	{"sim.tokenqueue_ns_per_op", 1, func() (func() int, error) {
		q := sim.NewTokenQueue(sim.NewEngine(), "bench.queue", 8)
		get := func(any) {}
		return func() int {
			for i := 0; i < 1000; i++ {
				q.Put(i, nil)
				q.Get(get)
			}
			return 1000
		}, nil
	}},
	{"mem.controller_ns_per_request", 1, func() (func() int, error) {
		eng := sim.NewEngine()
		c := mem.NewController(eng, "bench.mc", []*mem.DIMM{
			mem.NewDIMM(eng, "bench.dimm", mem.DDR42400(), mem.DefaultGeometry()),
		}, 64, 64)
		r := &mem.Request{Done: func(sim.Time) {}}
		var addr int64
		return func() int {
			for i := 0; i < 1000; i++ {
				r.Addr = addr
				addr += 64
				if !c.Submit(r) {
					panic("memory controller rejected a request on an idle queue")
				}
				eng.Run()
			}
			return 1000
		}, nil
	}},
	{"core.pipeline_ms", 1e-6, func() (func() int, error) {
		m, mp := workload.DefaultModel(), experiments.ReACHMapping()
		return func() int {
			if _, err := experiments.RunPipeline(m, mp, 4, 8); err != nil {
				panic(err)
			}
			return 1
		}, nil
	}},
	{"cluster.query_us", 1e-3, warmClusterQuery},
	{"cbir.kmeans_ms", 1e-6, func() (func() int, error) {
		ds := workload.Synthetic(workload.SyntheticParams{N: 4096, D: 32, Clusters: 16, Spread: 0.08, Seed: 7})
		return func() int {
			if _, err := cbir.KMeans(ds.Vectors, 16, 10, 8); err != nil {
				panic(err)
			}
			return 1
		}, nil
	}},
	{"cbir.pq_train_ms", 1e-6, func() (func() int, error) {
		ds := workload.Synthetic(workload.SyntheticParams{N: 2048, D: 96, Clusters: 16, Spread: 0.08, Seed: 9})
		p := cbir.PQParams{Subspaces: 8, CentroidsPerSub: 64, KMeansIters: 8, Seed: 1}
		return func() int {
			if _, err := cbir.TrainPQ(ds.Vectors, p); err != nil {
				panic(err)
			}
			return 1
		}, nil
	}},
	{"cbir.ivf_search_us", 1e-3, func() (func() int, error) {
		ds := workload.Synthetic(workload.SyntheticParams{N: 8192, D: 96, Clusters: 32, Spread: 0.08, Seed: 4})
		ix, err := cbir.BuildIndex(ds.Vectors, 32, 10, 5)
		if err != nil {
			return nil, err
		}
		queries := ds.Queries(16, 0.02, 6)
		p := cbir.SearchParams{Probes: 8, Candidates: 1024, K: 10}
		return func() int {
			if _, err := ix.Search(queries, p); err != nil {
				panic(err)
			}
			return queries.Rows
		}, nil
	}},
	{"kernels.squared_l2_ns", 1, func() (func() int, error) {
		ds := workload.Synthetic(workload.SyntheticParams{N: 64, D: 128, Clusters: 4, Spread: 0.08, Seed: 3})
		return func() int {
			var s float32
			for i := 0; i < 1000; i++ {
				s += kernels.SquaredL2(ds.Vectors.Row(i%64), ds.Vectors.Row((i+1)%64))
			}
			sink += s
			return 1000
		}, nil
	}},
}

// clusterQueryAllocs is filled by the cluster.query_us step: heap
// allocations per warm cluster query.
const clusterQueryAllocs = "cluster.query_allocs"

// warmClusterQuery times one query through a warm default 4-node cluster:
// the query pool, calendars and GAM state are filled before timing.
func warmClusterQuery() (func() int, error) {
	cl, err := cluster.New(config.DefaultCluster(), workload.DefaultModel(), qtrace.Options{DropTimelines: true})
	if err != nil {
		return nil, err
	}
	batch := func(n int) int {
		base := cl.Multi().Now()
		for i := 0; i < n; i++ {
			cl.SubmitAt(base + sim.Time(i+1)*sim.Millisecond)
		}
		if err := cl.Run(); err != nil {
			panic(err)
		}
		return n
	}
	batch(16)
	return func() int { return batch(8) }, nil
}

// runLadder measures every step and returns its metrics.
func runLadder() (map[string]float64, error) {
	out := map[string]float64{}
	for _, st := range ladder {
		op, err := st.make()
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", st.name, err)
		}
		op() // warm up
		var samples []float64
		var mallocs uint64
		var ops int
		for i := 0; i < ladderSamples; i++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			n := 0
			t0 := time.Now()
			for time.Since(t0) < ladderSample {
				n += op()
			}
			el := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			samples = append(samples, float64(el.Nanoseconds())/float64(n))
			mallocs += ms1.Mallocs - ms0.Mallocs
			ops += n
		}
		out[st.name] = median(samples) * st.scale
		if st.name == "cluster.query_us" {
			out[clusterQueryAllocs] = float64(mallocs) / float64(ops)
		}
	}
	return out, nil
}
