package cluster

import (
	"fmt"
	"sort"

	"repro/internal/qtrace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Straggler attribution: every scatter-gather merge is completed by
// exactly one shard response — the last of the quorum to arrive. That
// leg is the query's critical shard, and its internal breakdown (queue
// wait at the replica's GAM, device execution, wire time) says *why* the
// query's tail looked the way it did. Records are read off the query log
// after the run, so the report is a pure function of the simulation and
// splits the leg exactly as the log's intervals do.

// Straggler cause tags — where the critical leg's time dominated.
const (
	// CauseQueue: the leg mostly waited in the replica's GAM scheduling
	// queues (the saturated-hot-shard signature).
	CauseQueue = "queue"
	// CauseExec: the leg mostly executed on the replica's accelerators
	// (the work-skew signature).
	CauseExec = "exec"
	// CauseWire: the leg mostly sat on the network — scatter out plus
	// gather back (the fabric-bound signature).
	CauseWire = "wire"
)

// StragglerRecord is one merged query's critical-leg attribution.
type StragglerRecord struct {
	Query   int
	Content int
	// Shard/Node identify the critical leg: the shard whose response
	// completed the merge and the replica node that served it.
	Shard int
	Node  int
	// Front is the rest of the query's latency: the home-node leg
	// (arrival to feature fan-out) — context, not part of the critical
	// shard leg.
	Front sim.Time
	// Queue/Exec/Wire decompose the critical leg along the replica job's
	// critical path (core.Job.CriticalPath): scheduling-queue wait, device
	// execution, and wire time — scatter delivery, gather return, and the
	// job's internal inter-task DMAs.
	Queue sim.Time
	Exec  sim.Time
	Wire  sim.Time
	// Latency is the query's end-to-end arrival-to-merge time.
	Latency sim.Time
}

// Cause reports the dominant component of the critical leg, with the
// deterministic tie order queue > exec > wire.
func (r StragglerRecord) Cause() string {
	switch {
	case r.Queue >= r.Exec && r.Queue >= r.Wire:
		return CauseQueue
	case r.Exec >= r.Wire:
		return CauseExec
	default:
		return CauseWire
	}
}

// Stragglers reduces logged queries to straggler records, one per query
// that merged scattered responses, in the order given: the whole run's
// log (QLog().Queries()) or any slice of it, such as a flight window.
// A latency-only log (qtrace.Options.DropTimelines) yields none.
func (c *Cluster) Stragglers(queries []*qtrace.Query) []StragglerRecord {
	legs := map[string]legKey{}
	for s, labels := range c.detShard {
		for node, l := range labels {
			legs[l] = legKey{s, node}
		}
	}
	var recs []StragglerRecord
	for _, q := range queries {
		if r, ok := c.straggler(q, legs); ok {
			recs = append(recs, r)
		}
	}
	return recs
}

// straggler reads one query's merging leg off its timeline. The front end
// logs each shard leg when its response lands, as one run of intervals
// (scatter, the replica job's critical path, gather), so the merging leg
// is the run that ends in the quorum-th gather logged for the query.
func (c *Cluster) straggler(q *qtrace.Query, legs map[string]legKey) (StragglerRecord, bool) {
	r := StragglerRecord{Query: q.ID, Content: c.content(q.ID)}
	gathers := 0
	for _, iv := range q.Intervals {
		if iv.Stage == workload.StageFE { // image ingress, FE job, cache serve
			continue
		}
		switch iv.Phase {
		case qtrace.PhaseQueue:
			r.Queue += iv.Duration()
		case qtrace.PhaseExec:
			r.Exec += iv.Duration()
		default: // scatter, in-job DMA, gather
			r.Wire += iv.Duration()
		}
		switch {
		case iv.Level == levelShard: // the replica job's path
			k := legs[iv.Detail]
			r.Shard, r.Node = k.shard, k.node
		case iv.Stage == workload.StageRR: // the gather, which ends the leg
			if gathers++; gathers == c.needed {
				r.Latency = q.Latency()
				r.Front = r.Latency - r.Queue - r.Exec - r.Wire
				return r, true
			}
			r.Queue, r.Exec, r.Wire = 0, 0, 0
		}
	}
	return StragglerRecord{}, false
}

// tailThreshold is the q-quantile of the records' latencies under
// sim.Histogram's rank rule, the ⌊q·n⌋-th smallest (clamped to [1, n]),
// the rule of the run's p99 and p999 (qtrace.Log.Latencies), so "the p999
// tail" means every record at or above the run's p999.
func tailThreshold(recs []StragglerRecord, q float64) sim.Time {
	h := sim.NewHistogram()
	for _, r := range recs {
		h.Add(r.Latency)
	}
	return h.Quantile(q)
}

// legKey aggregates records by critical (shard, node).
type legKey struct{ shard, node int }

// legAgg is one leg's aggregate over a record subset.
type legAgg struct {
	count             int
	queue, exec, wire sim.Time
	causes            map[string]int
}

// aggregate folds records into per-leg aggregates plus the subset's
// dominant cause.
func aggregate(recs []StragglerRecord) (map[legKey]*legAgg, []legKey, string) {
	aggs := map[legKey]*legAgg{}
	var keys []legKey
	causes := map[string]int{}
	for _, r := range recs {
		k := legKey{r.Shard, r.Node}
		a := aggs[k]
		if a == nil {
			a = &legAgg{causes: map[string]int{}}
			aggs[k] = a
			keys = append(keys, k)
		}
		a.count++
		a.queue += r.Queue
		a.exec += r.Exec
		a.wire += r.Wire
		a.causes[r.Cause()]++
		causes[r.Cause()]++
	}
	sort.Slice(keys, func(i, j int) bool {
		if aggs[keys[i]].count != aggs[keys[j]].count {
			return aggs[keys[i]].count > aggs[keys[j]].count
		}
		if keys[i].shard != keys[j].shard {
			return keys[i].shard < keys[j].shard
		}
		return keys[i].node < keys[j].node
	})
	return aggs, keys, dominantCause(causes)
}

// dominantCause picks the most frequent cause with the fixed queue >
// exec > wire tie order.
func dominantCause(causes map[string]int) string {
	best, n := "", -1
	for _, c := range []string{CauseQueue, CauseExec, CauseWire} {
		if causes[c] > n {
			best, n = c, causes[c]
		}
	}
	return best
}

// DominantCause reports the most frequent critical-leg cause across recs
// (queue > exec > wire tie order), "" for an empty set — the one-word
// verdict a flight-recorder bundle attaches to its windowed stragglers.
func DominantCause(recs []StragglerRecord) string {
	if len(recs) == 0 {
		return ""
	}
	_, _, cause := aggregate(recs)
	return cause
}

// tailLine formats one tail subset as a footnote: threshold, population,
// the leg most often critical in it, and the subset's dominant cause.
func tailLine(label string, recs []StragglerRecord, thresh sim.Time) string {
	var tail []StragglerRecord
	for _, r := range recs {
		if r.Latency >= thresh {
			tail = append(tail, r)
		}
	}
	aggs, keys, cause := aggregate(tail)
	top := keys[0]
	return fmt.Sprintf("%s tail (latency ≥ %.3f ms, %d queries): shard%d@node%d critical in %d/%d, dominant cause %s",
		label, thresh.Milliseconds(), len(tail), top.shard, top.node, aggs[top].count, len(tail), cause)
}

// StragglerTable reduces the run's records to the slowest-shard
// attribution report: one row per critical (shard, node) leg with its
// merge share and mean breakdown, plus p99/p999 tail footnotes naming
// the leg and cause behind the tail. Returns nil when no scattered
// query merged (e.g. a run served entirely from the cache).
func StragglerTable(recs []StragglerRecord) *report.Table {
	if len(recs) == 0 {
		return nil
	}
	t := &report.Table{
		Title: "Straggler attribution — critical shard per merge (which leg completed the quorum, and why it was last)",
		Columns: []string{
			"critical leg", "merges", "share %", "dominant cause",
			"mean queue ms", "mean exec ms", "mean wire ms",
		},
	}
	aggs, keys, overall := aggregate(recs)
	for _, k := range keys {
		a := aggs[k]
		n := float64(a.count)
		t.AddRow(
			fmt.Sprintf("shard%d@node%d", k.shard, k.node),
			fmt.Sprintf("%d", a.count),
			report.F(100*n/float64(len(recs)), 1),
			dominantCause(a.causes),
			report.F(a.queue.Milliseconds()/n, 3),
			report.F(a.exec.Milliseconds()/n, 3),
			report.F(a.wire.Milliseconds()/n, 3),
		)
	}
	t.AddNote("%d scattered merges; overall dominant cause %s", len(recs), overall)
	t.AddNote("%s", tailLine("p99", recs, tailThreshold(recs, 0.99)))
	t.AddNote("%s", tailLine("p999", recs, tailThreshold(recs, 0.999)))
	return t
}
