package metrics

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// sprintfCSV is the reference rendering CSVWriter must reproduce: the
// row builder it used before formatting with strconv, one fmt.Sprintf
// per numeric field over the dense six-column reference store, header
// once, runs in order.
func sprintfCSV(t *testing.T, runs []string, refs []*dense) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(csvHeader); err != nil {
		t.Fatal(err)
	}
	for r, d := range refs {
		for i, tm := range d.times {
			for _, se := range d.series {
				j := i - se.start
				if j < 0 || j >= se.len() {
					continue
				}
				p := se.at(j)
				err := cw.Write([]string{
					runs[r],
					fmt.Sprintf("%d", i),
					fmt.Sprintf("%.3f", tm.Microseconds()),
					se.name,
					string(se.kind),
					fmt.Sprintf("%d", p.Occupancy),
					fmt.Sprintf("%d", p.Ops),
					fmt.Sprintf("%d", p.Bytes),
					fmt.Sprintf("%.3f", p.Busy.Microseconds()),
					fmt.Sprintf("%.3f", p.Wait.Microseconds()),
					fmt.Sprintf("%d", p.Stalls),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lateSampler records a timer-driven run in which "z.late" registers
// after sample 0.
func lateSampler(t *testing.T) *Sampler {
	t.Helper()
	eng := sim.NewEngine()
	link := sim.NewLink(eng, "a.early", 1e9, 0)
	eng.ScheduleCall(0, &tickLoad{link: link, period: 20 * sim.Microsecond, left: 10}, 0)
	eng.At(95*sim.Microsecond, func() {
		sim.NewLink(eng, "z.late", 1e9, 0).Transfer(4096)
	})
	rec := Attach(eng, Options{Interval: 10 * sim.Microsecond})
	eng.Run()
	rec.Finish()
	return rec.Sampler
}

// lateMultiSampler records a barrier-driven ping-pong run in which
// "z.late" registers in domain 0 after sample 0.
func lateMultiSampler(t *testing.T) *MultiSampler {
	t.Helper()
	m := buildPingPong(200)
	d := m.Domain(0)
	d.At(95*sim.Microsecond, func() {
		sim.NewLink(d, "z.late", 1e9, 0).Transfer(4096)
	})
	rec := AttachMulti(m, Options{Interval: 10 * sim.Microsecond})
	m.Run()
	return rec.Sampler
}

// extremeSource is a two-sample source whose points sit at the limits of
// every column type, including a series that starts at sample 1.
type extremeSource struct{ series []*Series }

func (e extremeSource) Samples() int { return 2 }

func (e extremeSource) Time(i int) sim.Time {
	return []sim.Time{0, math.MaxInt64}[i]
}

func (e extremeSource) Series() []*Series { return e.series }

func newExtremeSource() extremeSource {
	a := &Series{Name: "a,quoted \"name\"", Kind: sim.KindPort}
	b := &Series{Name: "b", Kind: sim.KindDomain, start: 1}
	for _, v := range []int64{0, -1} {
		a.append(Point{
			Occupancy: int(v), Ops: uint64(v), Bytes: uint64(v), Busy: sim.Time(v),
			Wait: sim.Time(math.MinInt64 - v), Stalls: uint64(v),
		}, 1)
	}
	b.append(Point{
		Occupancy: math.MaxInt64, Ops: math.MaxInt64, Bytes: math.MaxInt64,
		Busy: math.MaxInt64, Wait: math.MaxInt64, Stalls: math.MaxInt64,
	}, 1)
	return extremeSource{series: []*Series{a, b}}
}

// TestCSVWriterMatchesSprintf: WriteRun is byte-identical to the
// fmt.Sprintf rendering on a timer-driven Sampler, a barrier-driven
// MultiSampler and hand-built extreme values, with series registering
// after sample 0 so the skip branch runs, across several runs sharing one
// header.
func TestCSVWriterMatchesSprintf(t *testing.T) {
	s, ms := lateSampler(t), lateMultiSampler(t)
	for _, src := range []Source{s, ms} {
		late := src.Series()[len(src.Series())-1]
		if late.Name != "z.late" || late.Start() == 0 {
			t.Fatalf("late series %q starts at %d, want z.late after sample 0", late.Name, late.Start())
		}
	}
	runs := []string{"sampler", "multi", "extreme"}
	srcs := []Source{s, ms, newExtremeSource()}
	var got bytes.Buffer
	cw := NewCSVWriter(&got)
	refs := make([]*dense, len(srcs))
	for i, src := range srcs {
		if err := cw.WriteRun(runs[i], src); err != nil {
			t.Fatal(err)
		}
		refs[i] = denseOf(src)
	}
	// Two rows for the series holding at both samples and one for the
	// series starting at sample 1.
	if n := bytes.Count(got.Bytes(), []byte("\nextreme,")); n != 3 {
		t.Fatalf("extreme run wrote %d rows, want 3", n)
	}
	if want := sprintfCSV(t, runs, refs); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("CSV diverges from the fmt.Sprintf rendering:\n got %d bytes\nwant %d bytes\n%s",
			got.Len(), len(want), firstDiff(got.Bytes(), want))
	}
}

// firstDiff describes where two byte slices first differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d:\n got …%q\nwant …%q", i,
		got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// BenchmarkCSVWriteRun measures CSVWriter.WriteRun over a recorded
// barrier-sampled run whose four series move at nearly every sample.
func BenchmarkCSVWriteRun(b *testing.B) {
	m := buildPingPong(4000)
	rec := AttachMulti(m, Options{Interval: sim.Microsecond})
	m.Run()
	benchWriteRun(b, rec.Sampler)
}

// BenchmarkCSVWriteRunHeld is BenchmarkCSVWriteRun with 16 more links
// that each move once and then hold, so most rows copy a held tail.
func BenchmarkCSVWriteRunHeld(b *testing.B) {
	m := buildPingPong(4000)
	d := m.Domain(0)
	for k := 0; k < 16; k++ {
		l := sim.NewLink(d, fmt.Sprintf("held.%02d", k), 1e12, 0)
		d.At(sim.Time(k)*sim.Microsecond, func() { l.Transfer(4096) })
	}
	rec := AttachMulti(m, Options{Interval: sim.Microsecond})
	m.Run()
	benchWriteRun(b, rec.Sampler)
}

func benchWriteRun(b *testing.B, s Source) {
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := NewCSVWriter(&buf).WriteRun("bench", s); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// TestCSVWriteRunAllocs: WriteRun's allocations depend on the series,
// not on the rows. The same run sampled at 1 µs and at 10 µs has the
// same series and about ten times the rows, and allocates exactly as
// often.
func TestCSVWriteRunAllocs(t *testing.T) {
	sampled := func(interval sim.Time) *Sampler {
		eng := sim.NewEngine()
		eng.ScheduleCall(0, &tickLoad{link: sim.NewLink(eng, "bus.a", 1e9, 0), period: 20 * sim.Microsecond, left: 50}, 0)
		b := sim.NewLink(eng, "bus.b", 1e9, 0)
		eng.At(0, func() { b.Transfer(123) })
		rec := Attach(eng, Options{Interval: interval})
		eng.Run()
		rec.Finish()
		return rec.Sampler
	}
	fine, coarse := sampled(sim.Microsecond), sampled(10*sim.Microsecond)
	if len(fine.Series()) != len(coarse.Series()) {
		t.Fatalf("%d series at 1 µs, %d at 10 µs", len(fine.Series()), len(coarse.Series()))
	}
	if fine.Samples() < 9*coarse.Samples() {
		t.Fatalf("%d samples at 1 µs, %d at 10 µs: want many more rows at 1 µs", fine.Samples(), coarse.Samples())
	}
	allocs := func(s Source) float64 {
		// A collection inside the measurement counts the runtime's own
		// allocations (the first one starts its mark workers), so both
		// sides start right after one.
		runtime.GC()
		return testing.AllocsPerRun(10, func() {
			if err := NewCSVWriter(io.Discard).WriteRun("r", s); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(fine), allocs(coarse); a != b {
		t.Fatalf("WriteRun allocates %.0f times over %d samples and %.0f over %d", a, fine.Samples(), b, coarse.Samples())
	}
}

// FuzzAppendUS: the integer microsecond formatter writes exactly what
// strconv.FormatFloat writes for the float quotient, for every int64
// picosecond count. Each input is also checked shifted into the range
// where the integer path runs.
func FuzzAppendUS(f *testing.F) {
	for _, ps := range []int64{0, 1, -1, 499, 500, 501, -499, -500, -501, 498, 502, 1_000_500, 62_500,
		1<<52 - 1, 1<<52 + 1, 1 << 53, -(1 << 53), 1<<53 + 1, math.MaxInt64, math.MinInt64} {
		f.Add(ps)
	}
	f.Fuzz(func(t *testing.T, ps int64) {
		for _, v := range []int64{ps, ps >> 10, ps % 1_000_000_000_000} {
			got := string(appendUS(nil, sim.Time(v)))
			if want := strconv.FormatFloat(sim.Time(v).Microseconds(), 'f', 3, 64); got != want {
				t.Fatalf("%d ps: got %s, want %s", v, got, want)
			}
		}
	})
}
