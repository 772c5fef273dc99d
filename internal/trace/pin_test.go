package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The pins below were first recorded with the encoding/json renderer the
// streaming encoder replaced, re-recorded when counter lanes began to
// start at their first non-zero value, and again when they began to hold
// a point only where their value changes. Both runs are pure functions of
// the simulation, so any drift in field order, escaping, number
// formatting or event order changes the digest.

func checkPin(t *testing.T, raw []byte, wantLen int, wantSHA string) {
	t.Helper()
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); len(raw) != wantLen || got != wantSHA {
		t.Fatalf("trace = %d bytes, sha256 %s; want %d bytes, sha256 %s",
			len(raw), got, wantLen, wantSHA)
	}
}

// TestClusterTracePinned pins the observed cluster run's trace: process
// groups, async query pairs, routed intervals, per-node counters and
// spans.
func TestClusterTracePinned(t *testing.T) {
	checkPin(t, runClusterTrace(t), 285788,
		"cff9928db1378ecd6b1bd535c86e1b5c97290c053cdbd988559a8cc1258f695b")
}

// pipelineTrace renders a sampled, query-traced single-system pipeline
// run through every single-system Add* method.
func pipelineTrace(t *testing.T) []byte {
	t.Helper()
	spec := experiments.PipelineSpec("p", workload.DefaultModel(), experiments.ReACHMapping(), 4, 2)
	spec.Metrics = &metrics.Options{Interval: sim.Millisecond, Spans: true}
	spec.QTrace = &qtrace.Options{}
	run, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline()
	if err := tl.AddJobs(run.Jobs); err != nil {
		t.Fatal(err)
	}
	tl.AddResources(run.Sys.Engine().Stats(), run.Sys.Engine().Now())
	tl.AddQueries(run.QLog)
	tl.AddCounters(run.Obs.Sampler)
	tl.AddSpans(run.Obs.Spans)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineTracePinned pins the single-system trace: job and detection
// slices, resource counters, query lanes, counter lanes and GAM spans.
func TestPipelineTracePinned(t *testing.T) {
	checkPin(t, pipelineTrace(t), 40774,
		"2c003d11d6bd9001ee0a22195c1978a8442a6ce7d275f1f9a0ccb54bd73f923e")
}
