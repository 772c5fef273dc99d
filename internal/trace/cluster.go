package trace

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/qtrace"
)

// Cluster traces group events into one Chrome process per node plus a
// front-end process: pid 1 is the front end (query windows, cache lane,
// counters for the front-end tier), pid 2+i is node i (its FE and shard
// compute lanes, net in/out lanes, per-node counters and GAM spans).
// Process groups keep a 16-node trace navigable — Perfetto collapses each
// node to one row until expanded.
const clusterFEPID = 1

func clusterNodePID(i int) int { return 2 + i }

// AddCluster merges a cluster run's observability streams into the
// timeline: the queries, in QueryID order, fan out to per-node lanes
// (routed by each interval's detail label), the counter source's series
// land under their owning node's process, and each per-node span log
// lands under that node. Any argument may be nil (spans entries
// included). Taking queries and a metrics.Source rather than the live log
// and recorder lets callers hand in windowed views (flight's
// WindowQueries, metrics.WindowOf / metrics.WindowSpans) and cut a
// bundle-sized trace with the same renderer as a full-run trace; pass the
// log's Queries() and a MultiRecorder's Sampler and Spans fields for the
// full run. Beware typed-nil Sources: convert a possibly-nil
// *MultiSampler before calling.
func (t *Timeline) AddCluster(nodes int, queries []*qtrace.Query, counters metrics.Source, spans []*metrics.SpanLog) {
	t.SetProcessName(clusterFEPID, "front end")
	for i := 0; i < nodes; i++ {
		t.SetProcessName(clusterNodePID(i), fmt.Sprintf("node %d", i))
	}
	t.addClusterQueries(queries)
	if counters != nil {
		t.AddClusterCounters(counters)
	}
	for i, sl := range spans {
		if sl != nil {
			t.addSpansAt(clusterNodePID(i), sl)
		}
	}
}

// addClusterQueries renders each query as an async "b"/"e" pair on the
// front end (async events tolerate the arbitrary overlap of concurrent
// queries) and routes every recorded interval to the lane of the node that
// produced it.
func (t *Timeline) addClusterQueries(queries []*qtrace.Query) {
	for _, q := range queries {
		if q.Completed() {
			name, qid := "query "+strconv.Itoa(q.ID), "q"+strconv.Itoa(q.ID)
			queries := t.laneAt(clusterFEPID, "queries")
			queryArgs(t.begin(name, eventHead{
				cat: "query", ph: "b", ts: us(q.Arrival),
				pid: clusterFEPID, tid: queries, id: qid,
			}), q).add()
			t.begin(name, eventHead{
				cat: "query", ph: "e", ts: us(q.Done),
				pid: clusterFEPID, tid: queries, id: qid,
			}).add()
		}
		for _, iv := range q.Intervals {
			pid, lane := clusterIntervalLane(iv)
			intervalArgs(t.begin(iv.Phase+" "+iv.Stage+" (query "+strconv.Itoa(q.ID)+")", eventHead{
				cat: iv.Phase, ph: "X",
				ts: us(iv.Start), dur: us(iv.Duration()),
				pid: pid, tid: t.laneAt(pid, lane),
			}), iv).add()
		}
	}
}

// clusterIntervalLane maps a cluster query interval to its producer's
// process and lane, keyed by the detail labels the cluster emits:
//
//	"fe-cache", "fe-coalesce"  front-end cache lane
//	"client-node<H>"           node H net in (image ingress)
//	"node<H>"                  node H fe (feature queue/exec)
//	"node<H>-node<R>"          node R net in (scatter delivery)
//	"shard<S>@node<R>"         node R shard<S> (shortlist+rerank)
//	"node<R>-fe"               node R net out (gather return)
//
// Anything unrecognized stays on the front end's "queries" lane rather
// than being dropped.
func clusterIntervalLane(iv qtrace.Interval) (int, string) {
	d := iv.Detail
	switch {
	case d == "fe-cache" || d == "fe-coalesce":
		return clusterFEPID, "cache"
	case strings.HasPrefix(d, "client-"):
		if n, ok := parseNodeLabel(strings.TrimPrefix(d, "client-")); ok {
			return clusterNodePID(n), "net in"
		}
	case strings.Contains(d, "@"):
		shard, node, _ := strings.Cut(d, "@")
		if n, ok := parseNodeLabel(node); ok {
			return clusterNodePID(n), shard
		}
	case strings.HasSuffix(d, "-fe"):
		if n, ok := parseNodeLabel(strings.TrimSuffix(d, "-fe")); ok {
			return clusterNodePID(n), "net out"
		}
	case strings.Contains(d, "-"):
		if _, dst, ok := strings.Cut(d, "-"); ok {
			if n, ok := parseNodeLabel(dst); ok {
				return clusterNodePID(n), "net in"
			}
		}
	default:
		if n, ok := parseNodeLabel(d); ok {
			return clusterNodePID(n), "fe"
		}
	}
	return clusterFEPID, "queries"
}

// parseNodeLabel extracts i from "node<i>".
func parseNodeLabel(s string) (int, bool) {
	if !strings.HasPrefix(s, "node") {
		return 0, false
	}
	n, err := strconv.Atoi(s[len("node"):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// AddClusterCounters is AddCounters with per-node process routing: series
// named "node<i>.*" (a node's GAM, accelerators and links) and
// "cluster.net.node<i>.*" (its cluster ingress/egress) land under node i's
// process with the node prefix stripped; everything else — the front-end
// tier's cache and ingress, the synthetic "sim.domain<N>" streams — stays
// on the front-end process under its full name.
func (t *Timeline) AddClusterCounters(s metrics.Source) {
	for _, se := range s.Series() {
		pid, display := clusterFEPID, se.Name
		if n, rest, ok := nodeSeriesName(se.Name); ok {
			pid, display = clusterNodePID(n), rest
		}
		t.addCounterSeries(pid, display, s, se)
	}
}

// nodeSeriesName resolves a registry series name to its owning node:
// "node3.gam.readyq" → (3, "gam.readyq"), "cluster.net.node3.out" →
// (3, "net.out").
func nodeSeriesName(name string) (int, string, bool) {
	if rest, ok := strings.CutPrefix(name, "cluster.net."); ok {
		node, tail, found := strings.Cut(rest, ".")
		if !found {
			return 0, "", false
		}
		if n, ok := parseNodeLabel(node); ok {
			return n, "net." + tail, true
		}
		return 0, "", false
	}
	node, tail, found := strings.Cut(name, ".")
	if !found {
		return 0, "", false
	}
	if n, ok := parseNodeLabel(node); ok {
		return n, tail, true
	}
	return 0, "", false
}
