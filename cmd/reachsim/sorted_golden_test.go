package main

import (
	"bytes"
	"encoding/csv"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// goldenResourceOrder is the full sorted registry of a 4-instance ReACH
// pipeline run — the order both the -stats dump and the metrics CSV must
// follow. Registering a new resource model legitimately changes this list;
// update it alongside the model.
var goldenResourceOrder = []string{
	"mem.aimbus",
	"mem.aimdimm0", "mem.aimdimm1", "mem.aimdimm2", "mem.aimdimm3",
	"mem.host",
	"mem.nsbuf0", "mem.nsbuf1", "mem.nsbuf2", "mem.nsbuf3",
	"noc.cpu.in", "noc.cpu.out",
	"noc.gam.in", "noc.gam.out",
	"noc.llc.in", "noc.llc.out",
	"noc.onchip0.in", "noc.onchip0.out",
	"ssd.host_link",
	"ssd0.flash", "ssd1.flash", "ssd2.flash", "ssd3.flash",
	"stream.nearmem-nearstor", "stream.nearstor-cpu", "stream.onchip-nearmem",
}

// TestStatsAndMetricsSortedGolden pins sorted registry order across both
// observability outputs: the -stats resource table and the -metrics CSV.
func TestStatsAndMetricsSortedGolden(t *testing.T) {
	spec := experiments.PipelineSpec("pipeline", workload.DefaultModel(), experiments.ReACHMapping(), 4, 2)
	spec.Metrics = &metrics.Options{}
	run, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The registry itself must match the golden order.
	names := run.Sys.Engine().Stats().Names()
	if !equalStrings(names, goldenResourceOrder) {
		t.Fatalf("registry order changed:\ngot  %v\nwant %v", names, goldenResourceOrder)
	}

	// -stats table: rows are a subsequence of the golden order (idle
	// resources are omitted), and therefore sorted.
	tab := report.ResourceTable(run.Sys.Engine().Stats())
	var tableNames []string
	for _, row := range tab.Rows {
		tableNames = append(tableNames, row[0])
	}
	if !sort.StringsAreSorted(tableNames) {
		t.Fatalf("-stats rows not sorted: %v", tableNames)
	}
	if !isSubsequence(tableNames, goldenResourceOrder) {
		t.Fatalf("-stats rows %v not drawn from golden order", tableNames)
	}

	// Metrics CSV: within every sample, resources appear in golden
	// (sorted) order, and the closing sample lists exactly the resources
	// with a non-zero counter at the end of the run: a resource's rows
	// start at its first non-zero sample.
	var buf bytes.Buffer
	cw := metrics.NewCSVWriter(&buf)
	if err := cw.WriteRun("pipeline", run.Obs.Sampler); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	perSample := map[string][]string{}
	var lastSample string
	for _, row := range rows[1:] {
		perSample[row[1]] = append(perSample[row[1]], row[3])
		lastSample = row[1]
	}
	for sample, rs := range perSample {
		if !sort.StringsAreSorted(rs) {
			t.Fatalf("CSV sample %s rows not sorted: %v", sample, rs)
		}
		if !isSubsequence(rs, goldenResourceOrder) {
			t.Fatalf("CSV sample %s resources %v not drawn from golden order", sample, rs)
		}
	}
	var moved []string
	run.Sys.Engine().Stats().Walk(func(name string, res sim.Resource) {
		if st := res.ResourceStats(); st.Occupancy != 0 || st.Ops != 0 || st.Bytes != 0 ||
			st.Busy != 0 || st.Wait != 0 || st.Stalls != 0 {
			moved = append(moved, name)
		}
	})
	if len(moved) == 0 {
		t.Fatal("no resource moved in the pipeline run")
	}
	if !equalStrings(perSample[lastSample], moved) {
		t.Fatalf("closing CSV sample lists other resources than those that moved:\ngot  %v\nwant %v",
			perSample[lastSample], moved)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// isSubsequence reports whether sub appears within full in order.
func isSubsequence(sub, full []string) bool {
	i := 0
	for _, s := range full {
		if i < len(sub) && sub[i] == s {
			i++
		}
	}
	return i == len(sub)
}
