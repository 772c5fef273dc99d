package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// layerDefs lists the per-layer metrics. A traced run reports the ones
// that apply to its workload; the Contract ones apply to every workload
// and are the per-layer metrics BENCHMARK.json declares.
var layerDefs = []metricDef{
	// Ladder: isolated public calls, host cost per operation.
	{Name: "sim.engine_ns_per_event", Unit: "ns", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "sim.link_ns_per_transfer", Unit: "ns", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "sim.tokenqueue_ns_per_op", Unit: "ns", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "mem.controller_ns_per_request", Unit: "ns", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "core.pipeline_ms", Unit: "ms", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "cluster.query_us", Unit: "us", Better: "lower", Kind: kindHost, Contract: true},
	{Name: clusterQueryAllocs, Unit: "count", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "cbir.kmeans_ms", Unit: "ms", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "cbir.pq_train_ms", Unit: "ms", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "cbir.ivf_search_us", Unit: "us", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "kernels.squared_l2_ns", Unit: "ns", Better: "lower", Kind: kindHost, Contract: true},

	// The traced pass: host CPU share per layer group from its CPU profile
	// (see hostGroups), and the cost of tracing itself. Only the GC share
	// is far from zero on every workload.
	{Name: "host.sim_pct", Unit: "%", Better: "lower", Kind: kindHost},
	{Name: "host.core_pct", Unit: "%", Better: "lower", Kind: kindHost},
	{Name: "host.model_pct", Unit: "%", Better: "lower", Kind: kindHost},
	{Name: "host.cluster_pct", Unit: "%", Better: "lower", Kind: kindHost},
	{Name: "host.cbir_pct", Unit: "%", Better: "lower", Kind: kindHost},
	{Name: "host.kernels_pct", Unit: "%", Better: "lower", Kind: kindHost},
	{Name: "host.experiments_pct", Unit: "%", Better: "lower", Kind: kindHost},
	{Name: "host.obs_pct", Unit: "%", Better: "lower", Kind: kindHost},
	{Name: "host.gc_pct", Unit: "%", Better: "lower", Kind: kindHost, Contract: true},
	{Name: "host.rest_pct", Unit: "%", Better: "lower", Kind: kindHost},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Kind: kindHost, Contract: true},

	// In-process cluster workloads: the engine's barrier structure.
	{Name: "sim.events", Unit: "count", Kind: kindSim},
	{Name: "sim.rounds", Unit: "count", Kind: kindSim},
	{Name: "sim.events_per_round", Unit: "count", Better: "higher", Kind: kindSim},
	{Name: "sim.round_parallelism", Unit: "x", Better: "higher", Kind: kindSim},
	{Name: "sim.active_domains", Unit: "count", Better: "higher", Kind: kindSim},
	{Name: "sim.fe_event_share", Unit: "1", Kind: kindSim},
	{Name: "sim.round_host_us", Unit: "us", Better: "lower", Kind: kindHost},
	// Where simulated latency went, by qtrace phase.
	{Name: "core.queue_share", Unit: "1", Kind: kindSim},
	{Name: "core.exec_share", Unit: "1", Kind: kindSim},
	{Name: "core.xfer_share", Unit: "1", Kind: kindSim},
	// Modelled resources, aggregated over every node.
	{Name: "mem.dimm_util", Unit: "1", Kind: kindSim},
	{Name: "mem.wait_ms", Unit: "ms", Better: "lower", Kind: kindSim},
	{Name: "storage.flash_util", Unit: "1", Kind: kindSim},
	{Name: "storage.host_link_wait_ms", Unit: "ms", Better: "lower", Kind: kindSim},
	// The cluster tier.
	{Name: "cluster.new_ms", Unit: "ms", Better: "lower", Kind: kindHost},
	{Name: "cluster.run_us_per_query", Unit: "us", Better: "lower", Kind: kindHost},
	{Name: "cluster.allocs_per_query", Unit: "count", Better: "lower", Kind: kindHost},
	{Name: "cluster.routed_imbalance", Unit: "x", Better: "lower", Kind: kindSim},
	{Name: "cluster.peak_queue_imbalance", Unit: "x", Better: "lower", Kind: kindSim},
	{Name: "cluster.node_busy_pct", Unit: "%", Kind: kindSim},
	{Name: "cluster.net_wait_ms", Unit: "ms", Better: "lower", Kind: kindSim},
	{Name: "cluster.cache_hit_pct", Unit: "%", Better: "higher", Kind: kindSim},
	{Name: "cluster.cache_coalesced", Unit: "count", Kind: kindSim},
	{Name: "cluster.cache_expired", Unit: "count", Kind: kindSim},

	// paper-eval: each experiment id alone at -j 1, and the Fig 13 error
	// against the paper.
	{Name: "experiments.fig13_throughput_err_pct", Unit: "%", Kind: kindSim},
	{Name: "experiments.fig13_latency_err_pct", Unit: "%", Kind: kindSim},
	{Name: "experiments.fig13_energy_err_pp", Unit: "pp", Kind: kindSim},

	// cluster-observed: the flash run with one sink group each, and the
	// size of what the full run writes.
	{Name: "obs.bare_s", Unit: "s", Better: "lower", Kind: kindHost},
	{Name: "obs.metrics_s", Unit: "s", Better: "lower", Kind: kindHost},
	{Name: "obs.trace_s", Unit: "s", Better: "lower", Kind: kindHost},
	{Name: "obs.slo_s", Unit: "s", Better: "lower", Kind: kindHost},
	{Name: "obs.flight_s", Unit: "s", Better: "lower", Kind: kindHost},
	{Name: "obs.metrics_csv_mb", Unit: "MB", Better: "lower", Kind: kindSim},
	{Name: "obs.trace_json_mb", Unit: "MB", Better: "lower", Kind: kindSim},
	{Name: "obs.bundle_mb", Unit: "MB", Better: "lower", Kind: kindSim},
}

func init() {
	for _, id := range paperIDs {
		layerDefs = append(layerDefs, metricDef{Name: "experiments." + id + "_s", Unit: "s", Better: "lower", Kind: kindHost})
	}
}

// traceWorkload measures w's per-layer metrics: a timed pass and a traced
// pass of the same inputs (their model digests must agree), the
// workload's own per-layer runs, and the ladder. The record's end-to-end
// metrics come from the timed pass alone.
func (e *env) traceWorkload(w *workloadDef, spans *spanLog) workloadRecord {
	timed := e.pass(w, spans, false)
	traced := e.pass(w, spans, true)
	wr := aggregate(w, []passResult{timed})
	wr.Attempted += traced.Attempted
	fail := func(err error) {
		wr.Errors = append(wr.Errors, err.Error())
		wr.Failed = wr.Attempted
	}
	if traced.Err != nil {
		fail(traced.Err)
		return wr
	}
	if timed.Err == nil && traced.Digest != timed.Digest {
		fail(fmt.Errorf("traced pass model digest %.12s differs from the timed pass's %.12s", traced.Digest, timed.Digest))
	}
	layers := traced.Layers
	if t, ok := timed.Values["wall_s"]; ok {
		layers["trace_overhead_pct"] = 100 * (traced.Values["wall_s"] - t) / t
	}
	var err error
	switch w.Name {
	case "paper-eval":
		err = e.tracePaperEval(layers, spans)
	case "cluster-observed":
		err = e.traceSinks(layers, spans)
	}
	if err == nil {
		err = e.traceLadder(layers, spans)
	}
	if err != nil {
		fail(err)
	}
	wr.Layers = layerStats([]map[string]float64{layers})
	return wr
}

// tracePaperEval runs every experiment id alone, serially, and reads the
// Fig 13 error against the paper.
func (e *env) tracePaperEval(layers map[string]float64, spans *spanLog) error {
	for _, id := range paperIDs {
		s := spans.begin("reachsim -exp "+id, "experiments")
		p, err := runProc(e.root, e.reachsim, "-exp", id, "-j", "1")
		spans.end(s)
		if err != nil {
			return err
		}
		layers["experiments."+id+"_s"] = p.wall
		if id == "fig13" {
			f, err := parseFig13(p.stdout)
			if err != nil {
				return err
			}
			layers["experiments.fig13_throughput_err_pct"] = f.throughputErrPct()
			layers["experiments.fig13_latency_err_pct"] = f.latencyErrPct()
			layers["experiments.fig13_energy_err_pp"] = f.energyErrPP()
		}
	}
	return nil
}

// traceSinks times the flash run bare and with each sink group alone.
func (e *env) traceSinks(layers map[string]float64, spans *spanLog) error {
	for _, g := range sinkGroups {
		dir, err := os.MkdirTemp(e.out, "sinks-")
		if err != nil {
			return err
		}
		s := spans.begin("reachsim flash "+strings.TrimSuffix(strings.TrimPrefix(g.Name, "obs."), "_s"), "obs")
		p, err := runProc(dir, e.reachsim, append(append([]string(nil), flashBase...), g.Args(dir)...)...)
		spans.end(s)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		layers[g.Name] = p.wall
	}
	return nil
}

// traceLadder runs the ladder in a fresh process.
func (e *env) traceLadder(layers map[string]float64, spans *spanLog) error {
	s := spans.begin("ladder", "bench")
	p, err := runProc(e.root, e.self, "-child", "ladder")
	spans.end(s)
	if err != nil {
		return err
	}
	var l map[string]float64
	if err := json.Unmarshal(p.stdout, &l); err != nil {
		return fmt.Errorf("ladder output: %w", err)
	}
	for k, v := range l {
		layers[k] = v
	}
	return nil
}

// layerStats turns per-pass layer values into stats, in layerDefs order.
func layerStats(passes []map[string]float64) []metricStat {
	var out []metricStat
	for _, d := range layerDefs {
		st := metricStat{metricDef: d}
		for _, l := range passes {
			if v, ok := l[d.Name]; ok {
				st.Values = append(st.Values, v)
			}
		}
		if len(st.Values) > 0 {
			st.summarize()
			out = append(out, st)
		}
	}
	return out
}
