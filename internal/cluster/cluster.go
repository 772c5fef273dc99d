// Package cluster scales the single-server ReACH system out to a
// datacenter deployment: N composable nodes (core.NewNode), the shortlist
// database sharded with replication across them, and a front-end tier that
// scatter-gathers every query — feature extraction on the query's home
// node, the feature vector fanned out over an inter-node network to one
// replica per shard, shard-local shortlist+rerank, and a merge that
// completes the query once all (or a quorum of) shard responses return.
// Routing between replicas is pluggable (hash affinity, round robin, power
// of two choices); per-query Zipf popularity skews both which replicas
// hash routing hammers and how much work each shard contributes, which is
// exactly the regime where load-aware routing earns its tail latency.
//
// The cluster is partitioned into event domains: the front end owns
// domain 0 and each node owns its own domain, wired with sim.CrossLink
// egress whose fixed latency is the conservative lookahead. Everything
// with shared mutable state — the router, the query log, the merge —
// lives in the front-end domain; nodes only ever touch their own hardware
// and write per-query timing slots that the front end reads after a
// barrier-ordered delivery. A cluster run is therefore as deterministic
// as a single-server run: byte-identical at any -j.
package cluster

import (
	"fmt"
	"sync"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cluster is a running N-node deployment partitioned over 1+N event
// domains: domain 0 is the front end (router, query log, merge, result
// cache), domain 1+i is node i (its full hardware platform plus its
// network ingress and egress).
type Cluster struct {
	me     *sim.MultiEngine
	fe     *sim.Engine   // front-end domain
	dom    []*sim.Engine // per-node domains (index = node id)
	cfg    config.ClusterConfig
	model  workload.Model
	nodes  []*core.System
	pools  []jobPool        // per-node finished job graphs (node domain)
	in     []*sim.Link      // per-node network ingress (node domain, latency-free)
	out    []*sim.CrossLink // per-node network egress (carries the wire latency)
	feIn   *sim.Link        // front-end gather ingress
	router *Router
	qlog   *qtrace.Log

	allNodes    []int
	replicaSets [][]int   // shard → candidate replica nodes, precomputed
	needed      int       // shard responses that complete a query
	popW        []float64 // cumulative popularity over cfg.ContentItems
	shardW      []float64 // per-shard work weights (rotated per content)
	netLat      sim.Time

	// Front-end result cache + in-flight coalescing (nil/unused when
	// cfg.CacheEntries == 0 — the query path is then byte-identical to a
	// build without the cache).
	cache     *feCache
	co        *coalescer
	hitLat    sim.Time // front-end serve latency of a cache hit
	attachLat sim.Time // merge-to-completion latency of a coalesced query

	// Precomputed qlog interval labels, so the per-query path formats
	// nothing.
	detImg   []string   // client-node<home>
	detExec  []string   // node<home>
	detScat  [][]string // node<home>-node<replica>
	detShard [][]string // shard<s>@node<replica>
	detResp  []string   // node<replica>-fe

	// Front-end-domain state.
	submitted int
	completed int
	qpool     []*query // recycled query objects (scatter/merge state)

	// Straggler attribution (EnableStragglers): one record per merged
	// scatter, written in the front-end domain at merge time. Off by
	// default so the bare run stores nothing.
	trackStragglers bool
	stragglers      []StragglerRecord

	// Node domains report build/submit failures here.
	errMu sync.Mutex
	err   error
}

// New assembles a cluster per cfg: nodes node0..nodeN-1 with prefixed
// registries on their own event domains, an ingress and an egress link per
// node, the front-end domain with the router, and a query log configured
// by qopt (pass qtrace.Options{} for defaults; the log always exists — the
// latency sketch is the cluster's primary output).
func New(cfg config.ClusterConfig, m workload.Model, qopt qtrace.Options) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	policy, err := ParsePolicy(cfg.RoutePolicy)
	if err != nil {
		return nil, err
	}
	me := sim.NewMultiEngine(1 + cfg.Nodes)
	c := &Cluster{
		me:     me,
		fe:     me.Domain(0),
		cfg:    cfg,
		model:  m,
		router: NewRouter(policy, cfg.Nodes, cfg.RouteSeed),
		qlog:   qtrace.NewLog(qopt),
		pools:  make([]jobPool, cfg.Nodes),
		needed: cfg.Quorum,
		netLat: sim.FromSeconds(cfg.NetLatencyUS * 1e-6),
	}
	if c.needed == 0 {
		c.needed = cfg.Shards
	}
	bw := cfg.NetGBps * config.GBps
	// The wire latency is charged exactly once per hop, by the cross-domain
	// egress links — it is the conservative lookahead that bounds each
	// barrier round. Ingress links are pure bandwidth resources.
	c.feIn = sim.NewLink(c.fe, "cluster.net.fe.in", bw, 0)
	for i := 0; i < cfg.Nodes; i++ {
		d := me.Domain(1 + i)
		node, err := core.NewNode(d, cfg.Node, fmt.Sprintf("node%d.", i))
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.dom = append(c.dom, d)
		c.nodes = append(c.nodes, node)
		c.in = append(c.in, sim.NewLink(d, fmt.Sprintf("cluster.net.node%d.in", i), bw, 0))
		c.out = append(c.out, sim.NewCrossLink(d, fmt.Sprintf("cluster.net.node%d.out", i), bw, c.netLat))
		c.allNodes = append(c.allNodes, i)
		c.detImg = append(c.detImg, fmt.Sprintf("client-node%d", i))
		c.detExec = append(c.detExec, fmt.Sprintf("node%d", i))
		c.detResp = append(c.detResp, fmt.Sprintf("node%d-fe", i))
		scat := make([]string, cfg.Nodes)
		for j := 0; j < cfg.Nodes; j++ {
			scat[j] = fmt.Sprintf("node%d-node%d", i, j)
		}
		c.detScat = append(c.detScat, scat)
	}
	for s := 0; s < cfg.Shards; s++ {
		c.replicaSets = append(c.replicaSets, cfg.ReplicaNodes(s))
		lbl := make([]string, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			lbl[i] = fmt.Sprintf("shard%d@node%d", s, i)
		}
		c.detShard = append(c.detShard, lbl)
	}
	// Cumulative popularity for content sampling.
	w := workload.ZipfWeights(cfg.ContentItems, cfg.SkewExponent)
	c.popW = make([]float64, len(w))
	var cum float64
	for i, wi := range w {
		cum += wi
		c.popW[i] = cum
	}
	c.shardW = workload.ZipfWeights(cfg.Shards, cfg.SkewExponent)
	if cfg.CacheEntries > 0 {
		c.cache = newFECache(cfg.CacheEntries, sim.FromSeconds(cfg.CacheTTLMS*1e-3))
		c.co = newCoalescer()
		c.hitLat = sim.FromSeconds(cfg.CacheHitUS * 1e-6)
		c.attachLat = sim.FromSeconds(cfg.CoalesceUS * 1e-6)
		c.cache.registered = c.fe.Stats().Register("cluster.fe.cache", c.cache)
	}
	return c, nil
}

// Engine exposes the front-end domain; its Stats() registry is shared by
// every domain, so one registry walk covers the whole cluster.
func (c *Cluster) Engine() *sim.Engine { return c.fe }

// Multi exposes the domain coordinator (per-domain progress, total event
// counts, barrier rounds).
func (c *Cluster) Multi() *sim.MultiEngine { return c.me }

// Config reports the cluster configuration.
func (c *Cluster) Config() config.ClusterConfig { return c.cfg }

// Nodes returns the member systems (index = node id).
func (c *Cluster) Nodes() []*core.System { return c.nodes }

// RouterStats exposes the front-end router (routed counts, imbalance).
func (c *Cluster) RouterStats() *Router { return c.router }

// QLog exposes the cluster-level query log.
func (c *Cluster) QLog() *qtrace.Log { return c.qlog }

// CacheEnabled reports whether the front-end result cache is on.
func (c *Cluster) CacheEnabled() bool { return c.cache != nil }

// CacheStats snapshots the front-end cache and coalescing accounting
// (zero value when the cache is disabled). The counters are atomics, so
// live tooling may call this while the simulation runs.
func (c *Cluster) CacheStats() CacheStats {
	if c.cache == nil {
		return CacheStats{}
	}
	return c.cache.stats()
}

// PeakPending reports the singleflight table's high-water mark: how many
// distinct contents had scatters in flight at once (0 when the cache is
// disabled). Read after the run drains.
func (c *Cluster) PeakPending() int {
	if c.co == nil {
		return 0
	}
	return c.co.PeakPending()
}

// AttachSpans creates one GAM decision-span log per node and attaches
// them. Each log is appended to only by its owning node's event domain,
// so recording needs no synchronization; trace.Timeline.AddCluster renders
// each in its node's process group. Call before Run.
func (c *Cluster) AttachSpans() []*metrics.SpanLog {
	logs := make([]*metrics.SpanLog, len(c.nodes))
	for i, n := range c.nodes {
		logs[i] = metrics.NewSpanLog()
		n.GAM().SetSpanLog(logs[i])
	}
	return logs
}

// EnableStragglers turns on per-merge straggler attribution: every
// scattered query records which shard leg completed its merge and where
// that leg's time went. Off by default — the bare run stores nothing.
// Call before Run.
func (c *Cluster) EnableStragglers() { c.trackStragglers = true }

// Stragglers returns the per-query straggler records in merge order
// (empty unless EnableStragglers was called). The slice is the
// cluster's own; callers must not mutate it.
func (c *Cluster) Stragglers() []StragglerRecord { return c.stragglers }

// Completed reports how many queries have merged.
func (c *Cluster) Completed() int { return c.completed }

// Submitted reports how many queries have been scheduled.
func (c *Cluster) Submitted() int { return c.submitted }

// content samples the query-popularity universe for query qid —
// deterministic (a hash of qid drives inverse-CDF sampling, no shared RNG
// state), so the same qid is the same content in every run.
func (c *Cluster) content(qid int) int {
	u := float64(mix64(uint64(qid)+0x243f6a8885a308d3)) / (1 << 63) / 2
	for i, cum := range c.popW {
		if u <= cum {
			return i
		}
	}
	return len(c.popW) - 1
}

// shardFrac is the fraction of query content's work carried by shard s:
// the Zipf shard weights rotated by content, so every query has one hot
// shard and popular contents agree on which.
func (c *Cluster) shardFrac(content, s int) float64 {
	return c.shardW[(s+content)%c.cfg.Shards]
}

// SubmitAt schedules one query arrival at the front end at time `at` and
// returns its query id. Call before Run; arrivals are processed inside
// the event loop in time order. Arrivals submitted in time order wait in
// the front end's arrival lane rather than its calendar heap.
func (c *Cluster) SubmitAt(at sim.Time) int {
	id := c.submitted
	c.submitted++
	c.fe.AtCallInOrder(at, c, uint64(id)<<qShift|qArrive)
	return id
}

// Run drains all domains and verifies every submitted query merged.
func (c *Cluster) Run() error {
	c.me.Run()
	if c.err != nil {
		return c.err
	}
	if c.completed != c.submitted {
		return fmt.Errorf("cluster: %d of %d queries unmerged after run", c.submitted-c.completed, c.submitted)
	}
	return nil
}

// fail records the first internal error and stops scheduling new work.
// Any node domain may call it; the mutex keeps err safe to read from any
// goroutine.
func (c *Cluster) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// NodeBusyPct reports node i's mean accelerator-fabric utilisation over
// the run so far, in percent, averaged across its instances.
func (c *Cluster) NodeBusyPct(i int) float64 {
	now := c.me.Now()
	if now == 0 {
		return 0
	}
	var busy sim.Time
	var count int
	for _, l := range []accel.Level{accel.OnChip, accel.NearMemory, accel.NearStorage} {
		for _, a := range c.nodes[i].Accelerators(l) {
			busy += a.Fabric().Busy()
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return 100 * float64(busy) / float64(now) / float64(count)
}

// MeanBusyPct averages NodeBusyPct over the nodes.
func (c *Cluster) MeanBusyPct() float64 {
	var sum float64
	for i := range c.nodes {
		sum += c.NodeBusyPct(i)
	}
	return sum / float64(len(c.nodes))
}

// Query lifecycle phases, encoded in the event arg: low bits select the
// phase, high bits carry the shard index (or, for qArrive, the query id).
// Each phase names the domain it runs in — the lifecycle alternates
// between the front end and the nodes, every cross-domain leg riding a
// CrossLink or a latency-only export.
const (
	qArrive        uint64 = iota // FE: query hits the front end (arg>>qShift = qid)
	qImageIn                     // home node: query image landed at ingress
	qFeatures                    // home node: image transfer done, submit FE job
	qFeatDone                    // FE: home's completion notice (logging + router credit)
	qShardIn                     // replica node: feature vector landed at ingress
	qShardStart                  // replica node: ingress transfer done, submit shard job
	qRespIn                      // FE: shard response landed at gather ingress
	qResponse                    // FE: response transfer done, merge + logging
	qCacheServe                  // FE: cache hit completes (arg>>qShift = qid)
	qCoalesceServe               // FE: coalesced query completes after its lead's merge
	qShift         = 4
)

// Interval detail labels of the cache-served completions.
const (
	detCacheHit = "fe-cache"
	detCoalesce = "fe-coalesce"
)

// query is one in-flight scatter-gather request; it is its own event
// handler and its jobs' done handler, so the whole lifecycle schedules
// without closures. Queries are pooled: the object and its per-shard
// slices recycle once the last shard response merges, so steady-state
// submission allocates no scatter/merge state.
//
// Domain ownership contract: the front end writes the routing fields at
// arrival, before the query is exported to any node; each timing slot is
// written by exactly one domain (imgEnd/feStart/feEnd by the home,
// shardExecStart/End[s] by shard s's replica) and read by the front end
// only after a barrier-ordered mailbox delivery from the writer.
type query struct {
	c       *Cluster
	id      int
	content int
	home    int
	replica []int

	arrival    sim.Time
	imgEnd     sim.Time
	feStart    sim.Time
	feDispatch sim.Time // FE job's first task dispatch (feStart→feDispatch is queue wait)
	feEnd      sim.Time

	shardExecStart []sim.Time // shard job submitted on the replica
	shardDispatch  []sim.Time // shard job's first task dispatch (queue wait ends)
	shardExecEnd   []sim.Time

	// Critical-path decomposition of shard s's replica job (scheduling
	// queue wait, device time, intra-node DMA) written by the replica's
	// domain at completion — see core.Job.CriticalPath. Only filled when
	// straggler tracking is on.
	shardQueue []sim.Time
	shardExec  []sim.Time
	shardXfer  []sim.Time

	responses int
	merged    bool
}

// getQuery pops a recycled query (or builds one) and initialises it for
// query id carrying content. Front-end domain only.
func (c *Cluster) getQuery(id, content int) *query {
	var q *query
	if n := len(c.qpool); n > 0 {
		q = c.qpool[n-1]
		c.qpool = c.qpool[:n-1]
		q.responses = 0
		q.merged = false
	} else {
		q = &query{
			c:              c,
			replica:        make([]int, c.cfg.Shards),
			shardExecStart: make([]sim.Time, c.cfg.Shards),
			shardDispatch:  make([]sim.Time, c.cfg.Shards),
			shardExecEnd:   make([]sim.Time, c.cfg.Shards),
			shardQueue:     make([]sim.Time, c.cfg.Shards),
			shardExec:      make([]sim.Time, c.cfg.Shards),
			shardXfer:      make([]sim.Time, c.cfg.Shards),
		}
	}
	q.id = id
	q.content = content
	return q
}

// Fire handles the front-end phases carrying a query id: arrival (cache
// consultation + routing + scatter) and the two cache-served completions.
// Everything here runs in the front-end domain in arrival/event order, so
// the cache, the singleflight table and the router's RNG state evolve
// deterministically regardless of how node domains interleave.
func (c *Cluster) Fire(eng *sim.Engine, arg uint64) {
	id := int(arg >> qShift)
	now := eng.Now()
	switch arg & (1<<qShift - 1) {
	case qCacheServe:
		c.serveCached(id, now, detCacheHit)
		return
	case qCoalesceServe:
		c.serveCached(id, now, detCoalesce)
		return
	}
	// qArrive.
	content := c.content(id)
	c.qlog.Submitted(id, id, now)
	if c.cache != nil {
		if hit, _ := c.cache.lookup(content, now); hit {
			// Serve from the front-end tier: no routing, no scatter, the
			// whole query is one cache lookup + response.
			eng.AtCall(now+c.hitLat, c, uint64(id)<<qShift|qCacheServe)
			return
		}
		if c.co.attach(content, id) {
			// A scatter for this content is already in flight: attach to
			// it and share its gathered result at merge time.
			c.cache.coalesced.Add(1)
			return
		}
		c.co.begin(content, id) // this query leads the scatter
	}
	q := c.getQuery(id, content)
	q.arrival = now
	q.home = c.router.Pick(uint64(q.content), c.allNodes)
	for s := 0; s < c.cfg.Shards; s++ {
		q.replica[s] = c.router.Pick(uint64(q.content), c.replicaSets[s])
	}
	// Latency-only control export: the image bytes occupy the home's
	// ingress link once they arrive in its domain.
	eng.ExportAt(c.dom[q.home], now+c.netLat, q, qImageIn)
}

// serveCached completes query id from the front-end tier at time now: the
// cache-hit (or coalesced-attach) interval covers arrival to completion,
// then the query merges without ever having scattered.
func (c *Cluster) serveCached(id int, now sim.Time, detail string) {
	if q := c.qlog.Query(id); q != nil {
		c.qlog.Add(id, qtrace.Interval{
			Phase: qtrace.PhaseCacheHit, Stage: workload.StageFE,
			Detail: detail,
			Start:  q.Arrival, End: now,
		})
	}
	c.completed++
	c.qlog.Completed(id, now)
}

// Fire advances the query's lifecycle (all phases after arrival).
func (q *query) Fire(eng *sim.Engine, arg uint64) {
	c := q.c
	now := eng.Now()
	shard := int(arg >> qShift)
	switch arg & (1<<qShift - 1) {
	case qImageIn: // home node domain
		q.imgEnd = c.in[q.home].TransferAt(now, c.model.BatchImageBytes())
		eng.AtCall(q.imgEnd, q, qFeatures)

	case qFeatures: // home node domain
		q.feStart = now
		j, err := c.pools[q.home].feJob(c.nodes[q.home], q.id*(c.cfg.Shards+1), c.model)
		if err != nil {
			c.fail(err)
			return
		}
		j.OnDone(q, qFeatures)
		if err := c.nodes[q.home].GAM().Submit(j); err != nil {
			c.fail(err)
		}

	case qShardIn: // replica node domain
		t := c.in[q.replica[shard]].TransferAt(now, c.model.BatchFeatureBytes())
		eng.AtCall(t, q, uint64(shard)<<qShift|qShardStart)

	case qShardStart: // replica node domain
		node := q.replica[shard]
		q.shardExecStart[shard] = now
		j, err := c.pools[node].shardJob(c.nodes[node], q.id*(c.cfg.Shards+1)+1+shard,
			c.model, c.shardFrac(q.content, shard))
		if err != nil {
			c.fail(err)
			return
		}
		j.OnDone(q, arg)
		if err := c.nodes[node].GAM().Submit(j); err != nil {
			c.fail(err)
		}

	case qFeatDone: // front-end domain
		c.router.Done(q.home)
		c.qlog.Add(q.id, qtrace.Interval{
			Phase: qtrace.PhaseXfer, Stage: workload.StageFE,
			Detail: c.detImg[q.home],
			Start:  q.arrival, End: q.imgEnd,
		})
		if q.feDispatch > q.feStart {
			c.qlog.Add(q.id, qtrace.Interval{
				Phase: qtrace.PhaseQueue, Stage: workload.StageFE, Level: "onchip",
				Detail: c.detExec[q.home],
				Start:  q.feStart, End: q.feDispatch,
			})
		}
		c.qlog.Add(q.id, qtrace.Interval{
			Phase: qtrace.PhaseExec, Stage: workload.StageFE, Level: "onchip",
			Detail: c.detExec[q.home],
			Start:  q.feDispatch, End: q.feEnd,
		})

	case qRespIn: // front-end domain
		respBytes := scaleBytes(c.model.ResultBytesPerBatch(), c.shardFrac(q.content, shard))
		t := c.feIn.TransferAt(now, respBytes)
		eng.AtCall(t, q, uint64(shard)<<qShift|qResponse)

	case qResponse: // front-end domain
		node := q.replica[shard]
		c.router.Done(node)
		if node != q.home {
			c.qlog.Add(q.id, qtrace.Interval{
				Phase: qtrace.PhaseXfer, Stage: workload.StageSL,
				Detail: c.detScat[q.home][node],
				Start:  q.feEnd, End: q.shardExecStart[shard],
			})
		}
		if q.shardDispatch[shard] > q.shardExecStart[shard] {
			c.qlog.Add(q.id, qtrace.Interval{
				Phase: qtrace.PhaseQueue, Stage: workload.StageRR, Level: "nearmem+nearstor",
				Detail: c.detShard[shard][node],
				Start:  q.shardExecStart[shard], End: q.shardDispatch[shard],
			})
		}
		c.qlog.Add(q.id, qtrace.Interval{
			Phase: qtrace.PhaseExec, Stage: workload.StageRR, Level: "nearmem+nearstor",
			Detail: c.detShard[shard][node],
			Start:  q.shardDispatch[shard], End: q.shardExecEnd[shard],
		})
		c.qlog.Add(q.id, qtrace.Interval{
			Phase: qtrace.PhaseXfer, Stage: workload.StageRR,
			Detail: c.detResp[node],
			Start:  q.shardExecEnd[shard], End: now,
		})
		q.responses++
		if !q.merged && q.responses >= c.needed {
			q.merged = true
			c.completed++
			if c.trackStragglers {
				c.recordStraggler(q, shard, now)
			}
			c.qlog.Completed(q.id, now)
			if c.cache != nil {
				// The merged result fills the cache, and every query that
				// coalesced onto this scatter completes off it.
				c.cache.fill(q.content, now)
				if p := c.co.finish(q.content); p != nil {
					for _, w := range p.waiters {
						eng.AtCall(now+c.attachLat, c, uint64(w)<<qShift|qCoalesceServe)
					}
					c.co.release(p)
				}
			}
		}
		if q.responses == c.cfg.Shards {
			c.qpool = append(c.qpool, q) // last response: recycle
		}
	}
}

// JobDone implements core.DoneHandler for the query's jobs; arg is the
// phase that submitted the job (qFeatures, or qShardStart with the shard
// index), and the handler runs in that job's node domain.
func (q *query) JobDone(j *core.Job, arg uint64) {
	if arg == qFeatures {
		q.featDone(j)
		return
	}
	q.shardDone(int(arg>>qShift), j)
}

// featDone runs at FE-job completion in the home node's domain: return the
// graph to the home's free list, notify the front end (latency-only control
// message, off the critical path) and fan the feature vector out to one
// replica per shard — co-located shards skip the wire entirely, remote ones
// ride the home's egress CrossLink.
func (q *query) featDone(j *core.Job) {
	c := q.c
	home := c.dom[q.home]
	now := home.Now()
	q.feDispatch, _ = j.FirstDispatch()
	c.pools[q.home].fe = append(c.pools[q.home].fe, j)
	q.feEnd = now
	home.ExportAt(c.fe, now+c.netLat, q, qFeatDone)
	featBytes := c.model.BatchFeatureBytes()
	for s := 0; s < c.cfg.Shards; s++ {
		node := q.replica[s]
		if node == q.home {
			home.AtCall(now, q, uint64(s)<<qShift|qShardStart)
			continue
		}
		c.out[q.home].Send(c.dom[node], featBytes, q, uint64(s)<<qShift|qShardIn)
	}
}

// shardDone runs at a shard job's completion in its replica's domain:
// return the graph to the replica's free list and send the shard's rerank
// results back to the front end for the merge. The gather always crosses
// the wire — the front end is its own tier.
func (q *query) shardDone(shard int, j *core.Job) {
	c := q.c
	node := q.replica[shard]
	d := c.dom[node]
	q.shardDispatch[shard], _ = j.FirstDispatch()
	q.shardExecEnd[shard] = d.Now()
	if c.trackStragglers {
		q.shardQueue[shard], q.shardExec[shard], q.shardXfer[shard] = j.CriticalPath()
	}
	c.pools[node].shard = append(c.pools[node].shard, j)
	respBytes := scaleBytes(c.model.ResultBytesPerBatch(), c.shardFrac(q.content, shard))
	c.out[node].Send(c.fe, respBytes, q, uint64(shard)<<qShift|qRespIn)
}
