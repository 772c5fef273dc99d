package trace

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/sim"
)

// AddJobs records a batch of jobs, keeping every job that can be traced
// and reporting the first failure instead of silently dropping the rest:
// an unfinished job mid-batch no longer hides the finished jobs after it,
// and the caller still learns something went wrong.
func (t *Timeline) AddJobs(jobs []*core.Job) error {
	var first error
	for _, j := range jobs {
		if err := t.AddJob(j); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counterPointCap bounds Chrome counter points per series. Long runs at a
// fine sampling interval record far more samples than a trace viewer can
// render (a 1 s simulation at 10 µs is 100k points per resource); the
// merge decimates by stride, and the busy-% values stay exact because they
// are computed between the kept cumulative samples.
const counterPointCap = 2048

// AddCounters merges a sampler's time series into the timeline as Chrome
// "C" counter events: per resource one "occupancy" track and one "busy %"
// track (the busy-time delta over the decimated sampling stride, as a
// percentage), rendered by Perfetto as counter lanes alongside the task
// slices. A "C" event holds its value until the next one, so each lane
// starts from an implicit zero and gets a point only where its value
// differs from the last point written: a resource that never queues (a
// connection) has no occupancy lane, one that is never busy no busy-%
// lane, and a link held busy at one rate shows one point for the whole
// stretch. Series longer than counterPointCap points are decimated.
// Accepts any metrics.Source, so both the single-system Sampler and the
// cluster MultiSampler export through the same path.
func (t *Timeline) AddCounters(s metrics.Source) {
	for _, se := range s.Series() {
		t.addCounterSeries(1, se.Name, s, se)
	}
}

// addCounterSeries emits one series' occupancy and busy-% counter tracks
// under the given pid and display name. A series that starts at sample
// s > 0 read zero at sample s-1, so its first busy % is taken against
// that zero and the interval in which the resource first became busy
// still shows. The series is walked run by run: once a run's occupancy
// and busy time match the last points written and the last busy % is 0,
// none of its later samples can write a point, so the walk jumps to the
// run's last kept sample.
func (t *Timeline) addCounterSeries(pid int, display string, s metrics.Source, se *metrics.Series) {
	stride := max((se.Len()+counterPointCap-1)/counterPointCap, 1)
	occupancy, busy := display+" occupancy", display+" busy %"
	lastOcc, lastPct := 0, 0.0 // the last point written on each lane
	prevAt, prevBusy, havePrev := sim.Time(0), sim.Time(0), se.Start() > 0
	if havePrev {
		prevAt = s.Time(se.Start() - 1)
	}
	i := 0 // the next kept sample
	for it := se.Runs(); it.Next(); {
		r := it.Run()
		for ; i < r.To; i += stride {
			if havePrev && r.Busy == prevBusy && r.Occupancy == lastOcc && lastPct == 0 {
				// Every kept sample left in the run repeats both lanes.
				i += (r.To - 1 - i) / stride * stride
				prevAt = s.Time(se.Start() + i)
				continue
			}
			at := s.Time(se.Start() + i)
			if r.Occupancy != lastOcc {
				lastOcc = r.Occupancy
				t.begin(occupancy, eventHead{cat: "metrics", ph: "C", ts: us(at), pid: pid}).
					argInt("value", int64(r.Occupancy)).
					add()
			}
			if dt := at - prevAt; havePrev && dt > 0 {
				if pct := float64(r.Busy-prevBusy) / float64(dt) * 100; pct != lastPct {
					lastPct = pct
					t.begin(busy, eventHead{cat: "metrics", ph: "C", ts: us(at), pid: pid}).
						argFloat("value", pct).
						add()
				}
			}
			prevAt, prevBusy, havePrev = at, r.Busy, true
		}
	}
}

// AddQueries merges a per-query trace log into the timeline: one lane per
// query, carrying the query's end-to-end window (with its dominant
// attribution in args) and every recorded phase interval as nested "X"
// slices — the timeline answer to "where did query N's time go".
func (t *Timeline) AddQueries(l *qtrace.Log) {
	for _, q := range l.Queries() {
		name := "query " + strconv.Itoa(q.ID)
		lane := t.lane(name)
		if q.Completed() {
			queryArgs(t.begin(name, eventHead{
				cat: "query", ph: "X",
				ts: us(q.Arrival), dur: us(q.Done - q.Arrival),
				pid: 1, tid: lane,
			}), q).add()
		}
		for _, iv := range q.Intervals {
			intervalArgs(t.begin(iv.Phase+" "+iv.Stage, eventHead{
				cat: iv.Phase, ph: "X",
				ts: us(iv.Start), dur: us(iv.Duration()),
				pid: 1, tid: lane,
			}), iv).add()
		}
	}
}

// queryArgs writes a completed query's args: its dominant attribution,
// job and latency.
func queryArgs(s *eventStore, q *qtrace.Query) *eventStore {
	if dom := q.Dominant(); dom.Phase != "" {
		s.argStr("dominant", fmt.Sprintf("%.0f%% %s %s@%s",
			dom.Share*100, dom.Phase, dom.Stage, dom.Level))
	}
	return s.argInt("job", int64(q.Job)).argFloat("latency_ms", q.Latency().Milliseconds())
}

// intervalArgs writes a query interval's args.
func intervalArgs(s *eventStore, iv qtrace.Interval) *eventStore {
	return s.argStr("detail", iv.Detail).argStr("level", iv.Level).argStr("stage", iv.Stage)
}

// AddSpans merges a GAM span log into the timeline: one "X" slice per span
// on a per-category lane, with the cause, instance, job and the category's
// detail value in args. Instantaneous spans render as zero-duration slices.
func (t *Timeline) AddSpans(l *metrics.SpanLog) { t.addSpansAt(1, l) }

// addSpansAt is AddSpans under an explicit process group (a cluster node's
// pid).
func (t *Timeline) addSpansAt(pid int, l *metrics.SpanLog) {
	for _, sp := range l.Spans() {
		t.begin(sp.Name+" ["+sp.Cause+"]", eventHead{
			cat: sp.Cat, ph: "X",
			ts: us(sp.Start), dur: us(sp.End - sp.Start),
			pid: pid, tid: t.laneAt(pid, sp.Cat),
		}).
			argStr("cause", sp.Cause).
			argStr("instance", sp.Lane).
			argInt("job", int64(sp.Job)).
			argInt("v", sp.V).
			add()
	}
}
