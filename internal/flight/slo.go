package flight

import (
	"cmp"
	"slices"

	"repro/internal/qtrace"
	"repro/internal/report"
	"repro/internal/sim"
)

// sloWindow is one populated tumbling window of the SLO table.
type sloWindow struct {
	start             sim.Time
	queries, breaches int
	p50, p99, p999    sim.Time
}

// sloWindows groups the completed queries by the tumbling window of the
// given width their simulated completion instant falls in, oldest first
// (only populated windows exist), with each window's exact latency
// quantiles. A breach is a latency strictly above objective.
func sloWindows(queries []*qtrace.Query, width, objective sim.Time) []sloWindow {
	if width <= 0 || objective <= 0 {
		panic("flight: SLO window and objective must be positive")
	}
	type done struct{ idx, latency sim.Time }
	var ds []done
	for _, q := range queries {
		if q.Completed() {
			ds = append(ds, done{q.Done / width, q.Latency()})
		}
	}
	slices.SortFunc(ds, func(a, b done) int { return cmp.Compare(a.idx, b.idx) })
	var out []sloWindow
	for i, j := 0, 0; i < len(ds); i = j {
		w := sloWindow{start: ds[i].idx * width}
		h := sim.NewHistogram()
		for j = i; j < len(ds) && ds[j].idx == ds[i].idx; j++ {
			h.Add(ds[j].latency)
			if ds[j].latency > objective {
				w.breaches++
			}
		}
		w.queries = j - i
		w.p50, w.p99, w.p999 = h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999)
		out = append(out, w)
	}
	return out
}

// SLOTable reduces a run's query log to its end-of-run SLO report: the
// completed queries in tumbling sim-time windows of the given width, one
// row per populated window with its latency quantiles and burn against
// objective, plus cumulative footnotes. Windows are keyed by simulated
// completion time, so the table is a function of the run alone, the same
// at any -j. Both durations must be positive. Returns nil when no query
// completed.
func SLOTable(queries []*qtrace.Query, width, objective sim.Time) *report.Table {
	windows := sloWindows(queries, width, objective)
	if len(windows) == 0 {
		return nil
	}
	t := &report.Table{
		Title: "SLO windows — tumbling sim-time latency quantiles vs objective",
		Columns: []string{
			"window start ms", "queries", "p50 ms", "p99 ms", "p999 ms",
			"breaches", "burn %",
		},
	}
	var n, breaches int
	for _, w := range windows {
		n += w.queries
		breaches += w.breaches
		t.AddRow(
			report.F(w.start.Milliseconds(), 3),
			report.F(float64(w.queries), 0),
			report.F(w.p50.Milliseconds(), 3),
			report.F(w.p99.Milliseconds(), 3),
			report.F(w.p999.Milliseconds(), 3),
			report.F(float64(w.breaches), 0),
			report.F(100*float64(w.breaches)/float64(w.queries), 1),
		)
	}
	t.AddNote("objective %.3f ms, window %.3f ms", objective.Milliseconds(), width.Milliseconds())
	t.AddNote("%d queries, %d breaches (%.2f%% burn)", n, breaches, 100*float64(breaches)/float64(n))
	return t
}
