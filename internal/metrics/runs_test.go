package metrics

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

// denseSeries is the six-column store the change runs replaced, kept as
// the reference: every sample's counters from the series' start on.
type denseSeries struct {
	name  string
	kind  sim.ResourceKind
	start int

	occupancy, ops, bytes, busy, wait, stalls []int64
}

func (d *denseSeries) append(p Point) {
	d.occupancy = append(d.occupancy, int64(p.Occupancy))
	d.ops = append(d.ops, int64(p.Ops))
	d.bytes = append(d.bytes, int64(p.Bytes))
	d.busy = append(d.busy, int64(p.Busy))
	d.wait = append(d.wait, int64(p.Wait))
	d.stalls = append(d.stalls, int64(p.Stalls))
}

func (d *denseSeries) len() int { return len(d.occupancy) }

func (d *denseSeries) at(j int) Point {
	return Point{
		Occupancy: int(d.occupancy[j]),
		Ops:       uint64(d.ops[j]),
		Bytes:     uint64(d.bytes[j]),
		Busy:      sim.Time(d.busy[j]),
		Wait:      sim.Time(d.wait[j]),
		Stalls:    uint64(d.stalls[j]),
	}
}

// dense is a reference run: its sample instants and its dense series,
// sorted by name once recording is done.
type dense struct {
	times  []sim.Time
	series []*denseSeries
	byName map[string]*denseSeries
}

// record appends p as sample i of the named series, creating the series
// at i unless p is all zero and always is false — the rule a Sampler
// starts a series by.
func (d *dense) record(i int, name string, kind sim.ResourceKind, p Point, always bool) {
	se := d.byName[name]
	if se == nil {
		if !always && p == (Point{}) {
			return
		}
		if d.byName == nil {
			d.byName = map[string]*denseSeries{}
		}
		se = &denseSeries{name: name, start: i}
		d.byName[name] = se
		d.series = append(d.series, se)
	}
	se.kind = kind
	se.append(p)
}

func (d *dense) sort() {
	sort.Slice(d.series, func(i, j int) bool { return d.series[i].name < d.series[j].name })
}

// denseOf copies a Source point by point into the reference layout.
func denseOf(s Source) *dense {
	d := &dense{}
	for i := 0; i < s.Samples(); i++ {
		d.times = append(d.times, s.Time(i))
	}
	for _, se := range s.Series() {
		out := &denseSeries{name: se.Name, kind: se.Kind, start: se.Start()}
		for j := 0; j < se.Len(); j++ {
			out.append(se.At(j))
		}
		d.series = append(d.series, out)
	}
	return d
}

// window is WindowOf on the reference: the instants within [from, to],
// each series cut to them and re-anchored.
func (d *dense) window(from, to sim.Time) *dense {
	w := &dense{}
	lo, hi := -1, -1
	for i, t := range d.times {
		if t >= from && t <= to {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		return w
	}
	w.times = d.times[lo : hi+1]
	for _, se := range d.series {
		a, b := max(lo, se.start), min(hi+1, se.start+se.len())
		if a >= b {
			continue
		}
		out := &denseSeries{name: se.name, kind: se.kind, start: a - lo}
		for i := a; i < b; i++ {
			out.append(se.at(i - se.start))
		}
		w.series = append(w.series, out)
	}
	return w
}

// cum is the series' point at the last instant ≤ t, by a linear scan.
func (d *dense) cum(se *denseSeries, t sim.Time) Point {
	var p Point
	for j := 0; j < se.len() && d.times[se.start+j] <= t; j++ {
		p = se.at(j)
	}
	return p
}

// attribute is Attribute on the reference.
func (d *dense) attribute(phases []PhaseWindow) []Attribution {
	out := []Attribution{}
	for _, ph := range phases {
		att := Attribution{Phase: ph.Name, Window: ph.End - ph.Start}
		if att.Window > 0 {
			w := att.Window.Seconds()
			for _, se := range d.series {
				a, b := d.cum(se, ph.Start), d.cum(se, ph.End)
				busy, wait := b.Busy-a.Busy, b.Wait-a.Wait
				if busy <= 0 && wait <= 0 {
					continue
				}
				if pressure := (busy.Seconds() + wait.Seconds()) / w; pressure > att.Pressure {
					att.Resource, att.Kind, att.Busy, att.Wait, att.Pressure = se.name, se.kind, busy, wait, pressure
					att.Share = min(max(busy, wait).Seconds()/w, 1)
				}
			}
		}
		out = append(out, att)
	}
	return out
}

// checkDense checks a Source against its reference: the time axis, every
// series' name, kind, start, length and point, runs that tile the series
// with no two consecutive ones equal, the CSV bytes and Attribute over
// phases.
func checkDense(t *testing.T, what string, s Source, ref *dense, phases []PhaseWindow) {
	t.Helper()
	if s.Samples() != len(ref.times) {
		t.Fatalf("%s: %d samples, reference %d", what, s.Samples(), len(ref.times))
	}
	for i, tm := range ref.times {
		if s.Time(i) != tm {
			t.Fatalf("%s: sample %d at %v, reference %v", what, i, s.Time(i), tm)
		}
	}
	got := s.Series()
	if len(got) != len(ref.series) {
		var names, want []string
		for _, se := range got {
			names = append(names, se.Name)
		}
		for _, se := range ref.series {
			want = append(want, se.name)
		}
		t.Fatalf("%s: series %q, reference %q", what, names, want)
	}
	for k, se := range got {
		rs := ref.series[k]
		if se.Name != rs.name || se.Kind != rs.kind || se.Start() != rs.start || se.Len() != rs.len() {
			t.Fatalf("%s: series %s (%s) covers [%d, %d), reference %s (%s) [%d, %d)", what,
				se.Name, se.Kind, se.Start(), se.Start()+se.Len(), rs.name, rs.kind, rs.start, rs.start+rs.len())
		}
		for j := 0; j < se.Len(); j++ {
			if p := se.At(j); p != rs.at(j) {
				t.Fatalf("%s: %s At(%d) = %+v, reference %+v", what, se.Name, j, p, rs.at(j))
			}
		}
		next, stored := 0, 0
		var prev Point
		for it := se.Runs(); it.Next(); stored++ {
			r := it.Run()
			if r.From != next || r.To <= r.From {
				t.Fatalf("%s: %s run %d covers [%d, %d) after [.., %d)", what, se.Name, stored, r.From, r.To, next)
			}
			if stored > 0 && r.Point == prev {
				t.Fatalf("%s: %s runs %d and %d both hold %+v", what, se.Name, stored-1, stored, prev)
			}
			if r.Point != rs.at(r.From) || r.Point != rs.at(r.To-1) {
				t.Fatalf("%s: %s run [%d, %d) holds %+v", what, se.Name, r.From, r.To, r.Point)
			}
			next, prev = r.To, r.Point
		}
		if next != se.Len() {
			t.Fatalf("%s: %s runs end at %d of %d samples", what, se.Name, next, se.Len())
		}
	}
	var buf bytes.Buffer
	if err := NewCSVWriter(&buf).WriteRun(what, s); err != nil {
		t.Fatal(err)
	}
	if want := sprintfCSV(t, []string{what}, []*dense{ref}); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: CSV diverges from the reference:\n%s", what, firstDiff(buf.Bytes(), want))
	}
	if got, want := Attribute(s, phases), ref.attribute(phases); !reflect.DeepEqual(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: window [%v, %v]: got %+v, reference %+v", what, phases[i].Start, phases[i].End, got[i], want[i])
			}
		}
	}
}

// TestSeriesStoresOnlyChanges: a link that moves once and then holds for
// 10,000 samples stores one run, yet reads as 10,000 points and writes
// 10,000 CSV rows.
func TestSeriesStoresOnlyChanges(t *testing.T) {
	const held = 10_000
	eng := sim.NewEngine()
	link := sim.NewLink(eng, "bus.held", 1e12, 0)
	link.Transfer(4096) // done before the first sample
	eng.At((held-1)*sim.Microsecond+1, func() {})
	rec := Attach(eng, Options{Interval: sim.Microsecond})
	eng.Run()
	rec.Finish()

	s := rec.Sampler
	if s.Samples() != held {
		t.Fatalf("%d samples, want %d", s.Samples(), held)
	}
	se, ok := s.Lookup("bus.held")
	if !ok {
		t.Fatal("bus.held has no series")
	}
	if n := se.runs.len(); n != 1 {
		t.Fatalf("bus.held stores %d runs, want 1", n)
	}
	if se.Start() != 0 || se.Len() != held {
		t.Fatalf("bus.held covers [%d, %d), want [0, %d)", se.Start(), se.Start()+se.Len(), held)
	}
	st := link.ResourceStats()
	want := Point{Ops: st.Ops, Bytes: st.Bytes, Busy: st.Busy, Wait: st.Wait}
	for i := 0; i < held; i++ {
		if p := se.At(i); p != want {
			t.Fatalf("At(%d) = %+v, want %+v", i, p, want)
		}
	}
	var buf bytes.Buffer
	if err := NewCSVWriter(&buf).WriteRun("r", s); err != nil {
		t.Fatal(err)
	}
	if rows := bytes.Count(buf.Bytes(), []byte{'\n'}) - 1; rows != held {
		t.Fatalf("WriteRun wrote %d rows, want %d", rows, held)
	}
}

// scheduledRes is a registered resource whose counters follow a decoded
// schedule: at its k-th sample it reports steps[k] (the last step after
// the schedule ends). sample reports the sample index being taken.
type scheduledRes struct {
	name   string
	steps  []Point
	sample func() int
}

func (r *scheduledRes) Name() string { return r.name }

func (r *scheduledRes) ResourceStats() sim.ResourceStats {
	p := r.steps[min(r.sample(), len(r.steps)-1)]
	return sim.ResourceStats{
		Kind: sim.KindQueue, Occupancy: p.Occupancy, Ops: p.Ops, Bytes: p.Bytes,
		Busy: p.Busy, Wait: p.Wait, Stalls: p.Stalls,
	}
}

// decodeSchedule turns b into a schedule: b[0]%64 leading all-zero
// samples (a late start), then one step per byte pair. A step's first
// byte picks the counters it moves — bit 0 sets the occupancy to bits
// 6–7 (so it can fall back to 0), bits 1–5 advance ops, bytes, busy,
// wait and stalls — and its second byte holds the result for 1–64
// samples, up to maxSchedule samples in all. A step that moves nothing
// extends the hold before it, and a schedule that never moves makes a
// resource with no series.
func decodeSchedule(b []byte) []Point {
	var steps []Point
	if len(b) > 0 {
		steps = make([]Point, b[0]%64)
		b = b[1:]
	}
	var p Point
	for ; len(b) >= 2; b = b[2:] {
		c := b[0]
		if c&1 != 0 {
			p.Occupancy = int(c >> 6)
		}
		if c&2 != 0 {
			p.Ops++
		}
		if c&4 != 0 {
			p.Bytes += 4096
		}
		if c&8 != 0 {
			p.Busy += sim.Time(1+c>>6) * 250 * sim.Nanosecond
		}
		if c&16 != 0 {
			p.Wait += 100*sim.Nanosecond + 1
		}
		if c&32 != 0 {
			p.Stalls++
		}
		for hold := 1 + int(b[1]%64); hold > 0 && len(steps) < maxSchedule; hold-- {
			steps = append(steps, p)
		}
	}
	return steps
}

// denseObserver records a MultiSampler's run into the reference: after
// every barrier at which the sampler took a sample, every domain and
// every registered resource, by the rules OnBarrier documents.
type denseObserver struct {
	ms  *MultiSampler
	ref *dense
}

func (o *denseObserver) OnBarrier(m *sim.MultiEngine, mailboxes []int, final bool) {
	i := len(o.ref.times)
	if o.ms.Samples() == i {
		return // no sample at this barrier
	}
	now := m.Now()
	for k := 0; k < m.Domains(); k++ {
		d, mb := m.Domain(k), 0
		if k < len(mailboxes) {
			mb = mailboxes[k]
		}
		o.ref.record(i, fmt.Sprintf("sim.domain%d", k), sim.KindDomain, Point{
			Occupancy: d.Pending(), Ops: d.Executed(), Busy: d.Now(), Wait: now - d.Now(), Stalls: uint64(mb),
		}, true)
	}
	m.Stats().Walk(func(name string, res sim.Resource) {
		st := res.ResourceStats()
		o.ref.record(i, name, st.Kind, Point{
			Occupancy: st.Occupancy, Ops: st.Ops, Bytes: st.Bytes, Busy: st.Busy, Wait: st.Wait, Stalls: st.Stalls,
		}, false)
	})
	o.ref.times = append(o.ref.times, now)
}

// FuzzSeriesRuns decodes bytes into one to three scheduled resources
// (see decodeSchedule), samples them with a Sampler and, beside a
// ping-pong model, with a MultiSampler, and checks both runs and a
// window of each against the dense reference (checkDense). Bytes 1 and 2
// place the window and the attributed phases.
func FuzzSeriesRuns(f *testing.F) {
	f.Add([]byte{0, 64, 192, 3, 0x0a, 5, 0x00, 9, 0x0a, 0})
	f.Add([]byte{2, 10, 250, 0, 0x3f, 63, 0x01 | 0xc0, 2, 0x01, 7, 40, 0x12, 1, 0x00, 0, 60, 0x00, 9})
	f.Add([]byte{1, 0, 255, 63, 0x08, 63, 0x08, 63, 0x08, 63, 0, 0x00, 63, 0x00, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, wa, wb := 1+int(data[0]%3), int(data[1]), int(data[2])
		data = data[3:]
		chunk := len(data) / n
		var schedules [][]Point
		for r := 0; r < n; r++ {
			schedules = append(schedules, decodeSchedule(data[r*chunk:(r+1)*chunk]))
		}
		// phases attributes the whole run and windows placed by wa, wb.
		phases := func(ref *dense) []PhaseWindow {
			if len(ref.times) == 0 {
				return nil
			}
			last := len(ref.times) - 1
			a, b := ref.times[last*wa/255], ref.times[last*wb/255]
			return []PhaseWindow{
				{Name: "run", Start: 0, End: ref.times[last]},
				{Name: "ab", Start: a, End: b},
				{Name: "ab-1", Start: a - 1, End: b - 1},
				{Name: "ab+1", Start: a + 1, End: b + 1},
				{Name: "0a", Start: 0, End: a},
			}
		}
		check := func(what string, s Source, ref *dense) {
			ref.sort()
			checkDense(t, what, s, ref, phases(ref))
			if len(ref.times) == 0 {
				return
			}
			last := len(ref.times) - 1
			from, to := ref.times[last*min(wa, wb)/255]-sim.Time(wa&1), ref.times[last*max(wa, wb)/255]+sim.Time(wb&1)
			win := ref.window(from, to)
			checkDense(t, what+" window", WindowOf(s, from, to), win, phases(win))
		}

		// A timer-driven Sampler, ticking until the longest schedule ends.
		eng := sim.NewEngine()
		var s *Sampler
		end := 0
		for r, steps := range schedules {
			if len(steps) > 0 {
				eng.Stats().Register(fmt.Sprintf("r%d", r), &scheduledRes{name: fmt.Sprintf("r%d", r), steps: steps, sample: func() int { return s.Samples() }})
				end = max(end, len(steps))
			}
		}
		eng.At(sim.Time(end)*fuzzInterval, func() {})
		rec := Attach(eng, Options{Interval: fuzzInterval})
		s = rec.Sampler
		eng.Run()
		rec.Finish()
		ref := &dense{}
		for i := 0; i < s.Samples(); i++ {
			for r, steps := range schedules {
				if len(steps) > 0 {
					ref.record(i, fmt.Sprintf("r%d", r), sim.KindQueue, steps[min(i, len(steps)-1)], false)
				}
			}
			ref.times = append(ref.times, s.Time(i))
		}
		check("sampler", s, ref)

		// A barrier-driven MultiSampler, sampling every advancing barrier.
		m := buildPingPong(uint64(end/2 + 1))
		ms, mref := NewMultiSampler(m, 1), &dense{}
		m.SetBarrierObserver(ms, &denseObserver{ms: ms, ref: mref})
		for r, steps := range schedules {
			if len(steps) > 0 {
				m.Stats().Register(fmt.Sprintf("r%d", r), &scheduledRes{name: fmt.Sprintf("r%d", r), steps: steps, sample: func() int { return len(mref.times) }})
			}
		}
		m.Run()
		check("multi", ms, mref)
	})
}

const (
	// fuzzInterval is FuzzSeriesRuns's Sampler period.
	fuzzInterval = sim.Microsecond
	// maxSchedule caps a decoded schedule's samples.
	maxSchedule = 1024
)
