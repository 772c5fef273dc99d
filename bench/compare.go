package main

import (
	"fmt"
	"io"
	"strings"
)

// Verdicts of a comparison row.
const (
	verdictBetter       = "better"
	verdictSame         = "same"
	verdictWorse        = "worse"
	verdictUnresolved   = "unresolved"
	verdictModelChanged = "model-changed"
)

// finding is one compared (workload, metric) row.
type finding struct {
	Workload string
	Old, New metricStat
	Layer    bool    // a per-layer metric: reported, never fails
	Change   float64 // relative change of the median, positive = worse
	Verdict  string
	Fails    bool // the row makes compare exit non-zero
}

// compareStat judges one metric of NEW against OLD.
//
// A sim metric is exact: any difference is model-changed, and one in the
// worse direction fails. A host metric with a bound is worse when its
// median worsened by more than the bound, unresolved when either side's
// spread (IQR over median) exceeds the bound, unless every NEW run beats
// every OLD run, and better only when NEW wins at least 9 of 10 paired runs
// and the medians differ by more than OLD's IQR. Per-layer host metrics
// have no bound; they are judged against their own spread and never fail.
func compareStat(oldS, newS metricStat, layer bool) finding {
	f := finding{Old: oldS, New: newS, Layer: layer, Verdict: verdictSame}
	sign := 0.0
	switch newS.Better {
	case "lower":
		sign = 1
	case "higher":
		sign = -1
	}
	if oldS.Median != 0 {
		f.Change = sign * (newS.Median - oldS.Median) / abs(oldS.Median)
	}
	if newS.Kind == kindSim {
		if !sameValueSet(oldS.Values, newS.Values) {
			f.Verdict = verdictModelChanged
			f.Fails = !layer && sign*(newS.Median-oldS.Median) > 0
		}
		return f
	}
	if sign == 0 {
		return f
	}
	spread := oldS.spread()
	if s := newS.spread(); s > spread {
		spread = s
	}
	allBetter, allWorse := dominates(oldS, newS, sign)
	if layer {
		switch {
		case f.Change > spread && allWorse:
			f.Verdict = verdictWorse
		case -f.Change > spread && allBetter:
			f.Verdict = verdictBetter
		}
		return f
	}
	bound := newS.Bound
	switch {
	case f.Change > bound && (spread <= bound || allWorse):
		f.Verdict = verdictWorse
		f.Fails = true
	case spread > bound:
		f.Verdict = verdictUnresolved
		if allBetter {
			f.Verdict = verdictBetter
		}
	case f.Change < 0 && wins(oldS, newS, sign) >= 0.9 && -f.Change*abs(oldS.Median) > oldS.Q3-oldS.Q1:
		f.Verdict = verdictBetter
	}
	return f
}

// sameValueSet reports whether a and b hold the same distinct values, so
// a sim metric repeated over a different number of runs still matches.
func sameValueSet(a, b []float64) bool {
	distinct := func(v []float64) []float64 {
		var out []float64
		for i, x := range sorted(v) {
			if i == 0 || x != out[len(out)-1] {
				out = append(out, x)
			}
		}
		return out
	}
	da, db := distinct(a), distinct(b)
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}

// dominates reports whether every NEW value beats every OLD value, or
// every NEW value is worse than every OLD value.
func dominates(oldS, newS metricStat, sign float64) (allBetter, allWorse bool) {
	allBetter, allWorse = true, true
	for _, o := range oldS.Values {
		for _, n := range newS.Values {
			d := sign * (n - o)
			allBetter = allBetter && d < 0
			allWorse = allWorse && d > 0
		}
	}
	return allBetter, allWorse
}

// wins is the share of paired runs (OLD run i against NEW run i) that NEW
// wins; ties count for neither side.
func wins(oldS, newS metricStat, sign float64) float64 {
	n := len(oldS.Values)
	if len(newS.Values) < n {
		n = len(newS.Values)
	}
	if n == 0 {
		return 0
	}
	won := 0
	for i := 0; i < n; i++ {
		if sign*(newS.Values[i]-oldS.Values[i]) < 0 {
			won++
		}
	}
	return float64(won) / float64(n)
}

// compareRecords compares every (workload, metric) pair the two records
// share, end-to-end metrics first, then per-layer ones.
func compareRecords(oldR, newR *record) (rows []finding, notes []string) {
	for _, nw := range newR.Workloads {
		ow := oldR.workload(nw.Name)
		if ow == nil {
			notes = append(notes, fmt.Sprintf("%s: only in NEW", nw.Name))
			continue
		}
		for _, nm := range nw.Metrics {
			if om := ow.metric(nm.Name); om != nil {
				f := compareStat(*om, nm, false)
				f.Workload = nw.Name
				rows = append(rows, f)
			}
		}
		for _, nl := range nw.Layers {
			if ol := ow.layer(nl.Name); ol != nil {
				f := compareStat(*ol, nl, true)
				f.Workload = nw.Name
				rows = append(rows, f)
			}
		}
	}
	for _, ow := range oldR.Workloads {
		if newR.workload(ow.Name) == nil {
			notes = append(notes, fmt.Sprintf("%s: only in OLD", ow.Name))
		}
	}
	return rows, notes
}

// readRecords reads a comma-separated list of records and merges them into
// one: each (workload, metric) keeps every file's values in list order, so
// ten alternating single-pass runs compare as ten paired runs.
func readRecords(list string) (*record, error) {
	var merged *record
	for _, path := range strings.Split(list, ",") {
		r, err := readRecord(path)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = r
			continue
		}
		for _, w := range r.Workloads {
			mw := merged.workload(w.Name)
			if mw == nil {
				merged.Workloads = append(merged.Workloads, w)
				continue
			}
			mw.Attempted += w.Attempted
			mw.Failed += w.Failed
			mw.Metrics = mergeStats(mw.Metrics, w.Metrics)
			mw.Layers = mergeStats(mw.Layers, w.Layers)
		}
	}
	for i := range merged.Workloads {
		w := &merged.Workloads[i]
		if ff := w.metric("failed_frac"); ff != nil && w.Attempted > 0 {
			ff.Values = []float64{float64(w.Failed) / float64(w.Attempted)}
			ff.summarize()
		}
	}
	return merged, nil
}

// mergeStats appends b's values to the matching stats of a.
func mergeStats(a, b []metricStat) []metricStat {
	for _, s := range b {
		found := false
		for i := range a {
			if a[i].Name == s.Name {
				a[i].Values = append(a[i].Values, s.Values...)
				a[i].summarize()
				found = true
			}
		}
		if !found {
			a = append(a, s)
		}
	}
	return a
}

// compareMain implements `bench compare OLD.json NEW.json`: one row per
// (workload, metric) pair with both medians and IQRs and a verdict. Either
// side may be a comma-separated list of records, merged in order. It
// returns 1 when any end-to-end metric got worse (including a higher
// failed_frac or a simulated metric moving the wrong way), else 0.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare OLD.json[,OLD2.json...] NEW.json[,NEW2.json...]")
		return 2
	}
	oldR, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	newR, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	rows, notes := compareRecords(oldR, newR)
	fmt.Fprintf(stdout, "OLD %s (%s, seed %d)\nNEW %s (%s, seed %d)\n",
		args[0], short(oldR.Host.Commit), oldR.Seed, args[1], short(newR.Host.Commit), newR.Seed)
	fmt.Fprintf(stdout, "%-17s %-38s %-6s %-32s %-32s %8s  %s\n",
		"workload", "metric", "unit", "old median [q1 q3]", "new median [q1 q3]", "change", "verdict")
	status, findings := 0, 0
	for _, f := range rows {
		kind := ""
		if f.Layer {
			kind = " (layer)"
		}
		fmt.Fprintf(stdout, "%-17s %-38s %-6s %-32s %-32s %+7.1f%%  %s%s\n",
			f.Workload, f.New.Name, f.New.Unit, quart(f.Old), quart(f.New), 100*f.Change, f.Verdict, kind)
		if f.Verdict != verdictSame {
			findings++
		}
		if f.Fails {
			status = 1
		}
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	fmt.Fprintf(stdout, "%d rows, %d findings\n", len(rows), findings)
	return status
}

func quart(m metricStat) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", m.Median, m.Q1, m.Q3)
}

func short(commit string) string {
	if len(commit) > 12 {
		return commit[:12]
	}
	return commit
}
