package metrics

import (
	"sort"

	"repro/internal/sim"
)

// chunkSize is the column chunk length: large enough that steady-state
// sampling is pure in-chunk appends (zero allocations per sample), small
// enough that a short run does not over-reserve.
const chunkSize = 4096

// column is chunked int64 storage: append never moves recorded data and
// only allocates at chunk boundaries, so the sampler's hot path is
// allocation-free between boundaries.
type column struct {
	chunks [][]int64
	n      int
}

func (c *column) append(v int64) {
	if k := len(c.chunks); k == 0 || len(c.chunks[k-1]) == chunkSize {
		c.chunks = append(c.chunks, make([]int64, 0, chunkSize))
	}
	k := len(c.chunks) - 1
	c.chunks[k] = append(c.chunks[k], v)
	c.n++
}

func (c *column) at(i int) int64 { return c.chunks[i/chunkSize][i%chunkSize] }

func (c *column) len() int { return c.n }

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
type Series struct {
	Name string
	Kind sim.ResourceKind

	start int // global sample index of the first point

	occupancy column
	ops       column
	bytes     column
	busy      column
	wait      column
	stalls    column
}

// Start reports the global sample index of the series' first point.
func (s *Series) Start() int { return s.start }

// Len reports the number of recorded points.
func (s *Series) Len() int { return s.occupancy.len() }

// At returns the i-th recorded point (0 ≤ i < Len).
func (s *Series) At(i int) Point {
	return Point{
		Occupancy: int(s.occupancy.at(i)),
		Ops:       uint64(s.ops.at(i)),
		Bytes:     uint64(s.bytes.at(i)),
		Busy:      sim.Time(s.busy.at(i)),
		Wait:      sim.Time(s.wait.at(i)),
		Stalls:    uint64(s.stalls.at(i)),
	}
}

// seriesSet is the series store the timer-driven Sampler and the
// barrier-driven MultiSampler share: the sampling period, the time axis
// every series is aligned to, a map for lookup and first-seen order for
// iteration. The time axis length anchors Series.Start for resources
// that first move mid-run.
type seriesSet struct {
	interval sim.Time
	times    column // sample instants, shared time axis for every series
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
	ss.times.append(int64(at))
}

// record appends the resource's current counters to its series. The
// series is created at the current sample index the first time the
// resource reads anything but zero: until then every exporter reads the
// missing points as zero, and a resource that never moves costs no rows,
// lanes or memory.
func (ss *seriesSet) record(name string, res sim.Resource) {
	st := res.ResourceStats()
	se := ss.series[name]
	if se == nil {
		if st.Occupancy == 0 && st.Ops == 0 && st.Bytes == 0 && st.Busy == 0 && st.Wait == 0 && st.Stalls == 0 {
			return
		}
		se = &Series{Name: name, start: ss.times.len()}
		ss.series[name] = se
		ss.ordered = append(ss.ordered, se)
	}
	se.Kind = st.Kind
	se.occupancy.append(int64(st.Occupancy))
	se.ops.append(int64(st.Ops))
	se.bytes.append(int64(st.Bytes))
	se.busy.append(int64(st.Busy))
	se.wait.append(int64(st.Wait))
	se.stalls.append(int64(st.Stalls))
}

// Interval reports the sampling period (for the MultiSampler a lower
// bound on sample spacing: samples land on barrier instants).
func (ss *seriesSet) Interval() sim.Time { return ss.interval }

// Samples reports how many sample instants were recorded.
func (ss *seriesSet) Samples() int { return ss.times.len() }

// Time reports the simulated time of the i-th sample instant.
func (ss *seriesSet) Time(i int) sim.Time { return sim.Time(ss.times.at(i)) }

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
// period and appends one Point per registered resource. It schedules
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
