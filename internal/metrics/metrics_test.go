package metrics

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// tickLoad is a handler that occupies a link every period, count times —
// a minimal workload that keeps the calendar busy while a sampler runs.
type tickLoad struct {
	link   *sim.Link
	period sim.Time
	left   int
}

func (l *tickLoad) Fire(eng *sim.Engine, _ uint64) {
	l.link.Transfer(1 << 20)
	l.left--
	if l.left > 0 {
		eng.ScheduleCall(l.period, l, 0)
	}
}

func TestSamplerRecordsSeries(t *testing.T) {
	eng := sim.NewEngine()
	link := sim.NewLink(eng, "test.link", 1e9, 0)
	load := &tickLoad{link: link, period: 50 * sim.Microsecond, left: 20}
	eng.ScheduleCall(0, load, 0)

	rec := Attach(eng, Options{Interval: 10 * sim.Microsecond})
	eng.Run()
	rec.Finish()

	s := rec.Sampler
	if s.Samples() < 10 {
		t.Fatalf("expected many samples, got %d", s.Samples())
	}
	se, ok := s.Lookup("test.link")
	if !ok {
		t.Fatal("link series missing")
	}
	if se.Len() != s.Samples() {
		t.Fatalf("series len %d != samples %d", se.Len(), s.Samples())
	}
	// Cumulative counters must be monotone.
	for i := 1; i < se.Len(); i++ {
		if se.At(i).Bytes < se.At(i-1).Bytes || se.At(i).Busy < se.At(i-1).Busy {
			t.Fatalf("counters regressed at sample %d", i)
		}
	}
	last := se.At(se.Len() - 1)
	if last.Bytes != 20<<20 {
		t.Fatalf("closing sample bytes = %d, want %d", last.Bytes, 20<<20)
	}
	// The closing sample must land at the end-of-run instant.
	if got := s.Time(s.Samples() - 1); got != eng.Now() {
		t.Fatalf("closing sample at %v, engine at %v", got, eng.Now())
	}
}

// TestSamplerDoesNotKeepEngineAlive: an attached sampler must not prevent
// Engine.Run from draining an otherwise finished simulation.
func TestSamplerDoesNotKeepEngineAlive(t *testing.T) {
	eng := sim.NewEngine()
	link := sim.NewLink(eng, "test.link", 1e9, 0)
	load := &tickLoad{link: link, period: sim.Microsecond, left: 3}
	eng.ScheduleCall(0, load, 0)
	rec := Attach(eng, Options{Interval: 10 * sim.Microsecond})
	eng.Run() // must return
	rec.Finish()
	if eng.Pending() != 0 {
		t.Fatalf("calendar not drained: %d pending", eng.Pending())
	}
}

// TestSamplerMidRunRegistration: a resource registered after sampling
// started gets a series offset by Start(), and exports line up with the
// global time axis.
func TestSamplerMidRunRegistration(t *testing.T) {
	eng := sim.NewEngine()
	link := sim.NewLink(eng, "a.early", 1e9, 0)
	load := &tickLoad{link: link, period: 20 * sim.Microsecond, left: 10}
	eng.ScheduleCall(0, load, 0)
	var late *sim.Link
	eng.At(95*sim.Microsecond, func() {
		late = sim.NewLink(eng, "z.late", 1e9, 0)
		late.Transfer(4096)
	})
	rec := Attach(eng, Options{Interval: 10 * sim.Microsecond})
	eng.Run()
	rec.Finish()

	s := rec.Sampler
	se, ok := s.Lookup("z.late")
	if !ok {
		t.Fatal("late series missing")
	}
	if se.Start() == 0 {
		t.Fatal("late series should start after sample 0")
	}
	if se.Start()+se.Len() != s.Samples() {
		t.Fatalf("late series not aligned: start %d + len %d != samples %d",
			se.Start(), se.Len(), s.Samples())
	}
	if se.At(se.Len()-1).Bytes != 4096 {
		t.Fatalf("late series bytes = %d, want 4096", se.At(se.Len()-1).Bytes)
	}
}

// TestSamplerZeroAllocSteadyState is the tentpole's allocation gate: once
// every chunk and series exists, taking a sample allocates nothing, also
// when it stores a point. Link r.a moves before every measured sample;
// the other three hold.
func TestSamplerZeroAllocSteadyState(t *testing.T) {
	eng := sim.NewEngine()
	var links []*sim.Link
	for _, n := range []string{"r.a", "r.b", "r.c", "r.d"} {
		links = append(links, sim.NewLink(eng, n, 1e9, 0))
		links[len(links)-1].Transfer(1) // a series starts at its first move
	}
	s := NewSampler(eng, 10*sim.Microsecond)
	// Warm up: create series and first chunks.
	for i := 0; i < 8; i++ {
		s.sampleNow()
	}
	if len(s.Series()) != 4 {
		t.Fatalf("%d series after warm-up, want 4", len(s.Series()))
	}
	allocs := testing.AllocsPerRun(200, func() {
		links[0].Transfer(1)
		s.sampleNow()
	})
	if allocs > 0 {
		t.Fatalf("sampleNow allocates %.1f/op in steady state, want 0", allocs)
	}
	if a, b := s.series["r.a"].runs.len(), s.series["r.b"].runs.len(); a <= 200 || b != 1 {
		t.Fatalf("r.a stores %d points and r.b %d, want one per measured sample and 1", a, b)
	}
}

func TestAttributePicksPressuredResource(t *testing.T) {
	eng := sim.NewEngine()
	hot := sim.NewLink(eng, "bus.hot", 1e6, 0) // 1 MB/s: saturated
	sim.NewLink(eng, "bus.idle", 1e12, 0)      // never used
	cold := sim.NewLink(eng, "bus.cold", 1e12, 0)
	load := &tickLoad{link: hot, period: 10 * sim.Microsecond, left: 50}
	eng.ScheduleCall(0, load, 0)
	eng.At(0, func() { cold.Transfer(1) })
	rec := Attach(eng, Options{Interval: 5 * sim.Microsecond})
	eng.Run()
	rec.Finish()

	atts := Attribute(rec.Sampler, []PhaseWindow{{Name: "run", Start: 0, End: eng.Now()}})
	if len(atts) != 1 {
		t.Fatalf("got %d attributions", len(atts))
	}
	a := atts[0]
	if a.Resource != "bus.hot" {
		t.Fatalf("bottleneck = %q, want bus.hot (pressure %v)", a.Resource, a.Pressure)
	}
	if a.Pressure <= 0 || a.Share <= 0 || a.Share > 1 {
		t.Fatalf("bad pressure/share: %v / %v", a.Pressure, a.Share)
	}
}

func TestAttributeEmptyPhase(t *testing.T) {
	eng := sim.NewEngine()
	sim.NewLink(eng, "bus", 1e9, 0)
	rec := Attach(eng, Options{})
	eng.Run()
	rec.Finish()
	atts := Attribute(rec.Sampler, []PhaseWindow{
		{Name: "empty", Start: 0, End: sim.Millisecond},
		{Name: "degenerate", Start: 5, End: 5},
	})
	for _, a := range atts {
		if a.Resource != "" || a.Pressure != 0 {
			t.Fatalf("phase %q attributed %q with pressure %v, want none", a.Phase, a.Resource, a.Pressure)
		}
	}
}

func sampledRecorder(t *testing.T) *Recorder {
	t.Helper()
	eng := sim.NewEngine()
	b := sim.NewLink(eng, "bus.b", 1e9, 0)
	a := sim.NewLink(eng, "bus.a", 1e9, 0)
	load := &tickLoad{link: a, period: 20 * sim.Microsecond, left: 5}
	eng.ScheduleCall(0, load, 0)
	eng.At(0, func() { b.Transfer(123) })
	rec := Attach(eng, Options{Interval: 10 * sim.Microsecond})
	eng.Run()
	rec.Finish()
	return rec
}

// TestCSVWriterSortedAndWellFormed: rows parse under the declared header
// and resources appear in sorted order within each sample.
func TestCSVWriterSortedAndWellFormed(t *testing.T) {
	rec := sampledRecorder(t)
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	if err := cw.WriteRun("r0", rec.Sampler); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(rows[0], ","), strings.Join(CSVHeader(), ","); got != want {
		t.Fatalf("header %q, want %q", got, want)
	}
	if len(rows) != 1+rec.Sampler.Samples()*2 {
		t.Fatalf("row count %d, want %d", len(rows), 1+rec.Sampler.Samples()*2)
	}
	for i := 1; i < len(rows); i += 2 {
		if rows[i][3] != "bus.a" || rows[i+1][3] != "bus.b" {
			t.Fatalf("rows %d/%d not in sorted resource order: %q, %q", i, i+1, rows[i][3], rows[i+1][3])
		}
		if rows[i][1] != rows[i+1][1] {
			t.Fatalf("rows %d/%d not the same sample", i, i+1)
		}
	}
}

func TestSpanLogNilSafe(t *testing.T) {
	var l *SpanLog
	l.Add(Span{Cat: CatPollGap})
	if l.Len() != 0 || l.Spans() != nil {
		t.Fatal("nil SpanLog not inert")
	}
}

// firstMoveAt is when "z.late" first moves: off every sample instant, so
// each sample unambiguously precedes or follows it.
const firstMoveAt = 95*sim.Microsecond + 1

// firstMoveRun is a sampled run on a Sampler or a MultiSampler: links
// "z.late", idle until firstMoveAt, and "m.idle", which never moves,
// are registered before the first sample beside the run's busy
// resources. It returns the recorded series and the registry.
type firstMoveRun func(t *testing.T) (*seriesSet, *sim.StatsRegistry)

func firstMoveSampler(t *testing.T) (*seriesSet, *sim.StatsRegistry) {
	eng := sim.NewEngine()
	// A fast link keeps a.early's pressure low, so z.late's one big
	// transfer wins the windows that cover it.
	eng.ScheduleCall(0, &tickLoad{link: sim.NewLink(eng, "a.early", 1e12, 0), period: 20 * sim.Microsecond, left: 10}, 0)
	late := sim.NewLink(eng, "z.late", 1e9, 0)
	sim.NewLink(eng, "m.idle", 1e9, 0)
	eng.At(firstMoveAt, func() { late.Transfer(1 << 20) })
	rec := Attach(eng, Options{Interval: 10 * sim.Microsecond})
	eng.Run()
	rec.Finish()
	return &rec.Sampler.seriesSet, eng.Stats()
}

func firstMoveMulti(t *testing.T) (*seriesSet, *sim.StatsRegistry) {
	m := buildPingPong(200)
	d := m.Domain(0)
	late := sim.NewLink(d, "z.late", 1e9, 0)
	sim.NewLink(d, "m.idle", 1e9, 0)
	d.At(firstMoveAt, func() { late.Transfer(1 << 20) })
	rec := AttachMulti(m, Options{Interval: 10 * sim.Microsecond})
	m.Run()
	for _, se := range rec.Sampler.doms {
		if se.Start() != 0 || se.Len() != rec.Sampler.Samples() {
			t.Errorf("%s covers samples [%d, %d), want every one of %d",
				se.Name, se.Start(), se.Start()+se.Len(), rec.Sampler.Samples())
		}
	}
	return &rec.Sampler.seriesSet, m.Stats()
}

// zeroFilled copies src with a series for every registered resource
// that starts at sample 0: zero before the recorded Start, and zero
// throughout for a resource without a series.
func zeroFilled(src Source, reg *sim.StatsRegistry) Source {
	w := &windowSource{}
	for i := 0; i < src.Samples(); i++ {
		w.times = append(w.times, src.Time(i))
	}
	recorded := map[string]*Series{}
	names := reg.Names()
	for _, se := range src.Series() {
		recorded[se.Name] = se
		if se.Kind == sim.KindDomain {
			names = append(names, se.Name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		se, out := recorded[name], &Series{Name: name}
		for i := 0; i < src.Samples(); i++ {
			var p Point
			if se != nil && i >= se.Start() {
				p, out.Kind = se.At(i-se.Start()), se.Kind
			}
			out.append(p, 1)
		}
		w.series = append(w.series, out)
	}
	return w
}

// TestSeriesStartAtFirstMove: a resource idle for the first k samples
// gets a series starting at k whose first point is non-zero, one that
// never moves gets none, and Attribute over every window between and
// around the sample instants reads the missing points as the zeros they
// were.
func TestSeriesStartAtFirstMove(t *testing.T) {
	for _, c := range []struct {
		name string
		run  firstMoveRun
	}{{"Sampler", firstMoveSampler}, {"MultiSampler", firstMoveMulti}} {
		t.Run(c.name, func(t *testing.T) {
			s, reg := c.run(t)
			k := 0
			for k < s.Samples() && s.Time(k) < firstMoveAt {
				k++
			}
			if k == 0 || k == s.Samples() {
				t.Fatalf("z.late moves at sample %d of %d, want one in between", k, s.Samples())
			}
			late, ok := s.Lookup("z.late")
			if !ok {
				t.Fatal("z.late moved but has no series")
			}
			if late.Start() != k || late.Start()+late.Len() != s.Samples() {
				t.Fatalf("z.late covers samples [%d, %d), want [%d, %d)",
					late.Start(), late.Start()+late.Len(), k, s.Samples())
			}
			if _, ok := s.Lookup("m.idle"); ok {
				t.Error("m.idle never moved but has a series")
			}
			for _, se := range s.Series() {
				if se.Name == "m.idle" {
					t.Error("m.idle is among the exported series")
				}
				if p := se.At(0); se.Kind != sim.KindDomain && p == (Point{}) {
					t.Errorf("%s starts at sample %d on an all-zero point", se.Name, se.Start())
				}
			}

			var bounds []sim.Time
			for i := 0; i < s.Samples(); i++ {
				bounds = append(bounds, s.Time(i)-1, s.Time(i))
			}
			bounds = append(bounds, 0, s.Time(s.Samples()-1)+1)
			var phases []PhaseWindow
			for _, a := range bounds {
				for _, b := range bounds {
					if a <= b {
						phases = append(phases, PhaseWindow{Name: "w", Start: a, End: b})
					}
				}
			}
			got, want := Attribute(s, phases), Attribute(zeroFilled(s, reg), phases)
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("window [%v, %v]: got %+v, zero-filled %+v", phases[i].Start, phases[i].End, got[i], want[i])
					}
				}
			}
			lateWins := false
			for _, a := range got {
				lateWins = lateWins || a.Resource == "z.late"
			}
			if !lateWins {
				t.Error("z.late wins no window, so its start is never exercised")
			}
		})
	}
}
