package main

import (
	"crypto/sha256"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/workload"
)

// statsDigest runs the reference ReACH pipeline (the -stats path) and
// hashes the full statistics output: the sorted snapshot (which sources
// every shared-resource counter from the central registry) plus the
// rendered resource table.
func statsDigest(t *testing.T) ([32]byte, string) {
	t.Helper()
	run, err := experiments.RunPipeline(workload.DefaultModel(), experiments.ReACHMapping(), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run.Sys.WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	if err := report.ResourceTable(run.Sys.Engine().Stats()).Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256([]byte(sb.String())), sb.String()
}

// renderFig12 renders the Fig. 12 tables on a pool of the given size.
func renderFig12(t *testing.T, workers int) string {
	t.Helper()
	r, err := experiments.Fig12(workload.DefaultModel(), experiments.WithPool(runner.NewPool(workers)))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.Table().Render(&sb); err != nil {
		t.Fatal(err)
	}
	if err := r.Table().CSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestFig12WorkerCountInvariant is the parallelism half of the determinism
// contract: every run owns its own system and event engine, so the figure
// must come out byte-identical whether its runs execute serially (-j 1) or
// eight at a time (-j 8).
func TestFig12WorkerCountInvariant(t *testing.T) {
	serial := renderFig12(t, 1)
	parallel := renderFig12(t, 8)
	if serial != parallel {
		l1, l2 := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
		for i := 0; i < len(l1) && i < len(l2); i++ {
			if l1[i] != l2[i] {
				t.Fatalf("fig12 diverged between -j 1 and -j 8 at line %d:\n  -j 1: %s\n  -j 8: %s", i+1, l1[i], l2[i])
			}
		}
		t.Fatalf("fig12 output diverged in length: %d vs %d bytes", len(serial), len(parallel))
	}
}

// The simulator must be bit-deterministic: two runs with an identical
// configuration produce byte-identical statistics. This is the regression
// guard for the engine's FIFO tie-breaking, the sorted registry walk and
// the deterministic histogram decimation — any map-iteration or
// wall-clock dependency sneaking into the model shows up here.
func TestStatsDeterministic(t *testing.T) {
	d1, out1 := statsDigest(t)
	d2, out2 := statsDigest(t)
	if d1 != d2 {
		// Find the first differing line for a useful failure message.
		l1, l2 := strings.Split(out1, "\n"), strings.Split(out2, "\n")
		for i := 0; i < len(l1) && i < len(l2); i++ {
			if l1[i] != l2[i] {
				t.Fatalf("stats diverged at line %d:\n  run1: %s\n  run2: %s", i+1, l1[i], l2[i])
			}
		}
		t.Fatalf("stats diverged in length: %d vs %d bytes", len(out1), len(out2))
	}
	if !strings.Contains(out1, "mem.aimbus") || !strings.Contains(out1, "ssd.host_link") {
		t.Error("stats output missing expected registry resources")
	}
}
