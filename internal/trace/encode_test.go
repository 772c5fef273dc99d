package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// refEvent and refMeta are the struct-tagged records the exporter used to
// marshal; refWriteJSON is its WriteJSON (map args, []any,
// sort.SliceStable, json.Encoder). Together they are the reference
// rendering the streaming encoder must reproduce byte for byte.
type refEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type refMeta struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// refWriteJSON renders events with tl's processes and lanes as metadata.
func refWriteJSON(w io.Writer, tl *Timeline, events []refEvent) error {
	var all []any
	pids := make([]int, 0, len(tl.procs))
	for pid := range tl.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		all = append(all,
			refMeta{Name: "process_name", Phase: "M", PID: pid, Args: map[string]any{"name": tl.procs[pid]}},
			refMeta{Name: "process_sort_index", Phase: "M", PID: pid, Args: map[string]any{"sort_index": pid}})
	}
	keys := make([]laneKey, 0, len(tl.lanes))
	for k := range tl.lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].name < keys[j].name
	})
	for _, k := range keys {
		all = append(all, refMeta{Name: "thread_name", Phase: "M", PID: k.pid, TID: tl.lanes[k],
			Args: map[string]any{"name": k.name}})
	}
	evs := append([]refEvent(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	for _, e := range evs {
		all = append(all, e)
	}
	return json.NewEncoder(w).Encode(all)
}

// addBoth adds e to the timeline through the encoder and to the
// reference list.
func addBoth(tl *Timeline, ref *[]refEvent, e refEvent) {
	*ref = append(*ref, e)
	tl.begin(e.Name, eventHead{cat: e.Cat, ph: e.Phase, ts: e.TS, dur: e.Dur,
		pid: e.PID, tid: e.TID, id: e.ID})
	keys := make([]string, 0, len(e.Args))
	for k := range e.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := e.Args[k].(type) {
		case string:
			tl.argStr(k, v)
		case int:
			tl.argInt(k, int64(v))
		case int64:
			tl.argInt(k, v)
		case uint64:
			tl.argUint(k, v)
		case float64:
			tl.argFloat(k, v)
		default:
			panic(fmt.Sprintf("arg %s: unsupported type %T", k, v))
		}
	}
	tl.add()
}

// The reference Add* methods below are the exporter's old event
// builders; they look up the lanes the real methods already registered.

func refSpans(tl *Timeline, ref *[]refEvent, pid int, l *metrics.SpanLog) {
	for _, sp := range l.Spans() {
		*ref = append(*ref, refEvent{
			Name: fmt.Sprintf("%s [%s]", sp.Name, sp.Cause), Cat: sp.Cat, Phase: "X",
			TS: us(sp.Start), Dur: us(sp.End - sp.Start), PID: pid, TID: tl.laneAt(pid, sp.Cat),
			Args: map[string]any{"cause": sp.Cause, "instance": sp.Lane, "job": sp.Job, "v": sp.V},
		})
	}
}

// refCounters renders each series' counter lanes the way the exporter
// did before lanes held only changes, a point at every kept sample, with
// one addition: a series starting at sample k > 0 also gets a busy % at
// its first point, against the zero it read at sample k-1. It then drops
// each event whose value equals the last kept event of its lane, every
// lane starting from zero.
func refCounters(ref *[]refEvent, pid int, s metrics.Source) {
	for _, se := range s.Series() {
		var events []refEvent
		stride := max((se.Len()+counterPointCap-1)/counterPointCap, 1)
		prevIdx := -1
		for i := 0; i < se.Len(); i += stride {
			gi := se.Start() + i
			p := se.At(i)
			ts := us(s.Time(gi))
			events = append(events, refEvent{Name: se.Name + " occupancy", Cat: "metrics", Phase: "C",
				TS: ts, PID: pid, Args: map[string]any{"value": p.Occupancy}})
			havePrev, prevAt, prevBusy := true, sim.Time(0), sim.Time(0)
			switch {
			case prevIdx >= 0:
				prevAt, prevBusy = s.Time(se.Start()+prevIdx), se.At(prevIdx).Busy
			case se.Start() > 0:
				prevAt = s.Time(se.Start() - 1)
			default:
				havePrev = false
			}
			if dt := s.Time(gi) - prevAt; havePrev && dt > 0 {
				pct := float64(p.Busy-prevBusy) / float64(dt) * 100
				events = append(events, refEvent{Name: se.Name + " busy %", Cat: "metrics", Phase: "C",
					TS: ts, PID: pid, Args: map[string]any{"value": pct}})
			}
			prevIdx = i
		}
		last := map[string]float64{}
		for _, e := range events {
			if v := counterValue(e.Args["value"]); v != last[e.Name] {
				last[e.Name] = v
				*ref = append(*ref, e)
			}
		}
	}
}

// counterValue returns a counter event's int or float64 value.
func counterValue(v any) float64 {
	switch v := v.(type) {
	case int:
		return float64(v)
	case float64:
		return v
	}
	panic(fmt.Sprintf("counter value of type %T", v))
}

func refResources(tl *Timeline, ref *[]refEvent, reg *sim.StatsRegistry, now sim.Time) {
	reg.Walk(func(name string, res sim.Resource) {
		st := res.ResourceStats()
		if st.Ops == 0 && st.Stalls == 0 {
			return
		}
		args := map[string]any{"ops": st.Ops, "stalls": st.Stalls}
		if st.Bytes > 0 {
			args["bytes"] = st.Bytes
		}
		if st.Wait > 0 {
			args["wait_us"] = us(st.Wait)
		}
		if st.MaxOccupancy > 0 {
			args["max_occ"] = st.MaxOccupancy
		}
		*ref = append(*ref, refEvent{Name: name, Cat: "resource." + string(st.Kind), Phase: "C",
			TS: us(now), PID: 1, TID: tl.lane("resources"), Args: args})
	})
}

// awkwardStrings covers every escaping rule: quotes and backslashes,
// each control byte (short escapes included), the HTML-sensitive < > &,
// DEL, multi-byte runes, the JavaScript line separators U+2028/U+2029
// and invalid UTF-8 (a stray continuation byte, a truncated sequence,
// a truncated line separator, an encoded surrogate).
func awkwardStrings() []string {
	var ctl strings.Builder
	for c := 0; c < 0x20; c++ {
		ctl.WriteByte(byte(c))
	}
	return []string{
		"", "plain", `quote " and backslash \`, ctl.String(), "\b\f\n\r\t",
		"<script>a && b</script>", "del \x7f", "h\xc3\xa9llo \xe2\x9c\x93 \xe6\x97\xa5",
		"line" + string(rune(0x2028)) + "para" + string(rune(0x2029)) + "end",
		"bad \xff byte", "cut \xc3", "cut \xe2\x80", "surrogate \xed\xa0\x80", "\x80\x80",
	}
}

// awkwardFloats covers both notations, both cutoffs, signed zero, the
// smallest subnormal and exponents needing the e-09 to e-9 cleanup.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 5e-324, 1e-300,
	1e20, 1e21, -1e21, 1.5e300, -3.5, 123456789.125, 1.0 / 3, 0.1, 1e-9, math.MaxFloat64,
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range awkwardStrings() {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("%q: got %s, want %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range awkwardFloats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendFloat(nil, f)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("%v: got %s (ok %v), want %s", f, got, ok, want)
		}
	}
}

// TestWriteJSONMatchesEncodingJSON renders a timeline mixing hand-built
// events (awkward strings and numbers, absent dur, id and args) with real
// AddSpans, AddResources and AddCounters calls, all tied at the same
// timestamps, and compares it with the reference rendering.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	tl := NewTimeline()
	var ref []refEvent
	if err := compareRender(tl, ref); err != nil {
		t.Fatalf("empty timeline: %v", err)
	}

	const at = 5 * sim.Microsecond
	tl.SetProcessName(7, "proc <7> & \"q\"")
	strs := awkwardStrings()
	for i, s := range strs {
		addBoth(tl, &ref, refEvent{
			Name: s, Cat: s, Phase: "X", TS: us(at), Dur: awkwardFloats[i%len(awkwardFloats)],
			PID: 7, TID: tl.laneAt(7, s), ID: s,
			Args: map[string]any{"s": s, "a": i, "z": -i},
		})
	}
	for i, f := range awkwardFloats {
		addBoth(tl, &ref, refEvent{Name: "f", Cat: "num", Phase: "C", TS: f, Dur: f, PID: i,
			Args: map[string]any{"f": f, "u": uint64(math.MaxUint64) - uint64(i),
				"i": int64(math.MinInt64) + int64(i), "j": int64(math.MaxInt64) - int64(i)}})
	}
	addBoth(tl, &ref, refEvent{Name: "bare", Cat: "c", Phase: "b", TS: us(at)})
	addBoth(tl, &ref, refEvent{Name: "empty args", Cat: "c", Phase: "e", TS: us(at),
		Dur: math.Copysign(0, -1), Args: map[string]any{}})

	// Real Add* calls whose events tie with the hand-built ones at 5 µs
	// and with each other at 10 µs.
	eng := sim.NewEngine()
	// Resource (and counter series) names carrying DEL, the line
	// separators and invalid UTF-8.
	a := sim.NewLink(eng, strs[6]+strs[8], 1e9, 0)
	b := sim.NewLink(eng, strs[9], 1e9, 0)
	// A link first busy after the first sample, one never busy, one busy
	// at one rate for three samples and a port that holds an item for
	// three samples: lanes that start late, never, repeat a value, and
	// exist for occupancy only.
	late := sim.NewLink(eng, "late", 1e9, 0)
	sim.NewLink(eng, "idle", 1e9, 0)
	held := sim.NewLink(eng, "held", 1e9, 0)
	port := sim.NewTokenQueue(eng, "port", 2)
	rec := metrics.Attach(eng, metrics.Options{Interval: at})
	for _, start := range []sim.Time{0, at, 2 * at} {
		eng.At(start, func() {
			a.Transfer(1 << 12)
			a.Transfer(1 << 12) // queues behind the first: wait time
			b.Transfer(7)
		})
	}
	eng.At(at+at/2, func() { late.Transfer(1 << 10); port.Put(1, nil) })
	for _, k := range []sim.Time{1, 2, 3} {
		eng.At(k*at+at/2, func() { held.Transfer(1 << 10) })
	}
	eng.At(4*at+at/2, func() { port.TryGet() })
	eng.Run()
	rec.Finish()
	if se, ok := rec.Sampler.Lookup("late"); !ok || se.Start() == 0 {
		t.Fatal("the late link's series does not start after the first sample")
	}
	if se, ok := rec.Sampler.Lookup("held"); !ok || se.Len() < 3 ||
		se.At(2).Busy-se.At(1).Busy != se.At(1).Busy-se.At(0).Busy {
		t.Fatal("the held link's busy % does not repeat a value")
	}
	spans := metrics.NewSpanLog()
	for i, s := range strs {
		start := at * sim.Time(1+i%2)
		spans.Add(metrics.Span{Cat: "gam." + s, Name: s, Lane: s, Cause: s,
			Start: start, End: start + sim.Time(i), Job: i - 1, V: math.MinInt64 + int64(i)})
	}

	tl.AddSpans(spans)
	refSpans(tl, &ref, 1, spans)
	tl.AddResources(eng.Stats(), at)
	refResources(tl, &ref, eng.Stats(), at)
	tl.AddCounters(rec.Sampler)
	refCounters(&ref, 1, rec.Sampler)
	addBoth(tl, &ref, refEvent{Name: "last added, first of the 10 us ties", Cat: "c", Phase: "X",
		TS: us(2 * at), PID: 1})

	if err := compareRender(tl, ref); err != nil {
		t.Fatal(err)
	}
	// Rendering sorts the store in place; a second render, after more
	// events, must still agree.
	addBoth(tl, &ref, refEvent{Name: "after a render", Cat: "c", Phase: "X", TS: us(at), PID: 1})
	if err := compareRender(tl, ref); err != nil {
		t.Fatalf("second render: %v", err)
	}
}

// compareRender reports where tl's rendering departs from the reference.
func compareRender(tl *Timeline, ref []refEvent) error {
	var got, want bytes.Buffer
	if err := tl.WriteJSON(&got); err != nil {
		return err
	}
	if err := refWriteJSON(&want, tl, ref); err != nil {
		return err
	}
	g, w := got.Bytes(), want.Bytes()
	if bytes.Equal(g, w) {
		return nil
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(i-60, 0)
	return fmt.Errorf("rendering departs from encoding/json at byte %d of %d/%d:\n got …%s\nwant …%s",
		i, len(g), len(w), g[lo:min(i+60, len(g))], w[lo:min(i+60, len(w))])
}

// TestWriteJSONRejectsNonFinite: like json.Encoder, a NaN or infinite
// value anywhere fails the render before a byte is written.
func TestWriteJSONRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, field := range []string{"ts", "dur", "arg"} {
			tl := NewTimeline()
			var ref []refEvent
			e := refEvent{Name: "ok", Cat: "c", Phase: "X", TS: 1, Dur: 1, Args: map[string]any{"v": 1.5}}
			addBoth(tl, &ref, e)
			switch field {
			case "ts":
				e.TS = bad
			case "dur":
				e.Dur = bad
			case "arg":
				e.Args = map[string]any{"v": bad}
			}
			addBoth(tl, &ref, e)
			if refWriteJSON(io.Discard, tl, ref) == nil {
				t.Fatalf("%v in %s: the reference accepted it", bad, field)
			}
			var buf bytes.Buffer
			if err := tl.WriteJSON(&buf); err == nil || buf.Len() != 0 {
				t.Errorf("%v in %s: err %v after %d bytes, want an error and no output",
					bad, field, err, buf.Len())
			}
		}
	}
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	k := w.n
	w.n = 0
	return k, errDiskFull
}

// TestWriteJSONReportsWriterError: a writer failing partway through the
// trace fails WriteJSON with the writer's error.
func TestWriteJSONReportsWriterError(t *testing.T) {
	c, rec := recordCluster(t)
	tl := NewTimeline()
	tl.AddCluster(config.DefaultCluster().Nodes, c.QLog().Queries(), rec.Sampler, rec.Spans)
	var full bytes.Buffer
	if err := tl.WriteJSON(&full); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, full.Len() / 2, full.Len() - 1} {
		if err := tl.WriteJSON(&failWriter{n: n}); !errors.Is(err, errDiskFull) {
			t.Errorf("writer failing after %d of %d bytes: err %v, want %v", n, full.Len(), err, errDiskFull)
		}
	}
}
