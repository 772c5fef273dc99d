package metrics

import (
	"sort"

	"repro/internal/sim"
)

// chunkSize is the chunk length of the sampler's storage: large enough
// that steady-state sampling is pure in-chunk appends (zero allocations
// per sample), small enough that a short run does not over-reserve.
const chunkSize = 1024

// chunked is append-only storage in fixed-size chunks: append never
// moves recorded data and only allocates at chunk boundaries, so the
// sampler's hot path is allocation-free between boundaries.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

func (c *chunked[T]) append(v T) {
	if k := len(c.chunks); k == 0 || len(c.chunks[k-1]) == chunkSize {
		c.chunks = append(c.chunks, make([]T, 0, chunkSize))
	}
	k := len(c.chunks) - 1
	c.chunks[k] = append(c.chunks[k], v)
	c.n++
}

// at returns the i-th element by reference (0 ≤ i < len).
func (c *chunked[T]) at(i int) *T { return &c.chunks[i/chunkSize][i%chunkSize] }

func (c *chunked[T]) len() int { return c.n }

// Point is one recorded sample of one resource: the cumulative registry
// counters plus the instantaneous occupancy at the sample instant.
type Point struct {
	Occupancy int
	Ops       uint64
	Bytes     uint64
	Busy      sim.Time
	Wait      sim.Time
	Stalls    uint64
}

// Series is the time series of one registered resource. A series starts
// at the first sample where any of its counters or its occupancy is
// non-zero, so a resource that never moves has none; Start reports that
// global sample index, and every earlier sample read zero.
//
// A series is stored as change runs: a Point is kept only where one of
// its six values differs from the last kept Point, with the sample at
// which that run begins. Len, At and Runs still cover every sample from
// Start on.
type Series struct {
	Name string
	Kind sim.ResourceKind

	start int // global sample index of the first point
	n     int // samples recorded from start on
	runs  chunked[run]
}

// run is one stored Point and the series-relative sample where it
// begins to hold; it holds until the next run begins, the last one to
// the end of the series.
type run struct {
	from int
	p    Point
}

// Start reports the global sample index of the series' first point.
func (s *Series) Start() int { return s.start }

// Len reports the number of samples the series covers.
func (s *Series) Len() int { return s.n }

// At returns the point at the series' i-th sample (0 ≤ i < Len). It is
// a binary search over the runs and keeps no state, so concurrent
// readers are safe.
func (s *Series) At(i int) Point {
	k := sort.Search(s.runs.len(), func(k int) bool { return s.runs.at(k).from > i })
	return s.runs.at(k - 1).p
}

// append records p for the next count samples. It stores p only when p
// differs from the last stored point; otherwise the last run grows.
func (s *Series) append(p Point, count int) {
	if k := s.runs.len(); k == 0 || s.runs.at(k-1).p != p {
		s.runs.append(run{from: s.n, p: p})
	}
	s.n += count
}

// Run is a stretch of a series' samples, [From, To) relative to its
// Start, over which every value held Point.
type Run struct {
	From, To int
	Point
}

// Runs returns an iterator over the series' runs in sample order. No two
// consecutive runs hold the same Point, and together they cover [0, Len).
func (s *Series) Runs() RunIter { return RunIter{s: s, k: -1} }

// RunIter walks a series' runs: call Next before each Run.
type RunIter struct {
	s *Series
	k int
}

// Next advances to the next run and reports whether there is one.
func (it *RunIter) Next() bool {
	it.k++
	return it.k < it.s.runs.len()
}

// Run returns the current run.
func (it *RunIter) Run() Run {
	r, to := it.s.runs.at(it.k), it.s.n
	if it.k+1 < it.s.runs.len() {
		to = it.s.runs.at(it.k + 1).from
	}
	return Run{From: r.from, To: to, Point: r.p}
}

// seriesSet is the series store the timer-driven Sampler and the
// barrier-driven MultiSampler share: the sampling period, the time axis
// every series is aligned to, a map for lookup and first-seen order for
// iteration. The time axis length anchors Series.Start for resources
// that first move mid-run.
type seriesSet struct {
	interval sim.Time
	times    chunked[sim.Time] // sample instants, shared time axis for every series
	series   map[string]*Series
	ordered  []*Series                           // first-seen order; sorted on demand at export
	walkFn   func(name string, res sim.Resource) // bound once: no per-sample closure
}

// init prepares an embedded set in place (walkFn binds its address);
// interval <= 0 means DefaultInterval.
func (ss *seriesSet) init(interval sim.Time) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	ss.interval = interval
	ss.series = make(map[string]*Series)
	ss.walkFn = ss.record
}

// sample records one sample instant at: one point per resource in reg.
func (ss *seriesSet) sample(at sim.Time, reg *sim.StatsRegistry) {
	reg.Walk(ss.walkFn)
	ss.times.append(at)
}

// record extends the resource's series by its current counters, storing
// a point only where they changed. The series is created at the current
// sample index the first time the resource reads anything but zero:
// until then every exporter reads the missing points as zero, and a
// resource that never moves costs no rows, lanes or memory.
func (ss *seriesSet) record(name string, res sim.Resource) {
	st := res.ResourceStats()
	p := Point{Occupancy: st.Occupancy, Ops: st.Ops, Bytes: st.Bytes, Busy: st.Busy, Wait: st.Wait, Stalls: st.Stalls}
	se := ss.series[name]
	if se == nil {
		if p == (Point{}) {
			return
		}
		se = &Series{Name: name, start: ss.times.len()}
		ss.series[name] = se
		ss.ordered = append(ss.ordered, se)
	}
	se.Kind = st.Kind
	se.append(p, 1)
}

// Interval reports the sampling period (for the MultiSampler a lower
// bound on sample spacing: samples land on barrier instants).
func (ss *seriesSet) Interval() sim.Time { return ss.interval }

// Samples reports how many sample instants were recorded.
func (ss *seriesSet) Samples() int { return ss.times.len() }

// Time reports the simulated time of the i-th sample instant.
func (ss *seriesSet) Time(i int) sim.Time { return *ss.times.at(i) }

// Series returns every recorded series sorted by name — the
// deterministic export order (allocates; call at export time, not from
// the hot path).
func (ss *seriesSet) Series() []*Series {
	out := make([]*Series, len(ss.ordered))
	copy(out, ss.ordered)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds one series by name.
func (ss *seriesSet) Lookup(name string) (*Series, bool) {
	se, ok := ss.series[name]
	return se, ok
}

// Sampler walks the engine's StatsRegistry on a fixed simulated-time
// period and records one Point per registered resource. It schedules
// itself on the calendar and stops rescheduling once it is the only
// pending event, so an attached sampler never keeps a drained simulation
// alive.
type Sampler struct {
	eng *sim.Engine
	seriesSet

	pending sim.EventHandle
}

// NewSampler creates a sampler on eng; interval <= 0 means
// DefaultInterval. Call Start to schedule the first tick.
func NewSampler(eng *sim.Engine, interval sim.Time) *Sampler {
	s := &Sampler{eng: eng}
	s.init(interval)
	return s
}

// Start schedules the first tick, one interval from now.
func (s *Sampler) Start() {
	s.pending = s.eng.ScheduleCall(s.interval, s, 0)
}

// Fire implements sim.Handler: take a sample and re-arm while the
// simulation still has work pending. When the sampler's own event was the
// last one in the calendar the run is over and it stops, so attaching a
// sampler never prevents Engine.Run from terminating.
func (s *Sampler) Fire(eng *sim.Engine, _ uint64) {
	s.pending = sim.EventHandle{}
	s.sampleNow()
	if eng.Pending() > 0 {
		s.pending = eng.ScheduleCall(s.interval, s, 0)
	}
}

// Finish cancels any pending tick and takes the closing sample at the
// current (end-of-run) time, so attributions over the full run window see
// final counter values. Safe to call once after Engine.Run returns.
func (s *Sampler) Finish() {
	s.pending.Cancel()
	s.pending = sim.EventHandle{}
	if n := s.Samples(); n == 0 || s.Time(n-1) != s.eng.Now() {
		s.sampleNow()
	}
}

// sampleNow records one sample instant at the engine's current time.
func (s *Sampler) sampleNow() { s.sample(s.eng.Now(), s.eng.Stats()) }
