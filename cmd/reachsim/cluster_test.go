package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/inspect"
)

// TestClusterRunCacheRows: with the front-end result cache enabled, the
// pinned -cluster run's summary table carries the cache accounting rows.
func TestClusterRunCacheRows(t *testing.T) {
	var out strings.Builder
	if err := runCluster(&out, io.Discard, clusterOptions{cache: 32}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cache hit rate %") {
		t.Fatalf("cache-on run emitted no cache rows:\n%s", out.String())
	}
}

// TestClusterInspector: a -cluster run feeds the inspector it is handed
// every completed query, its final registry and the domain partition's
// progress, and the cache, SLO and flight options each add their block.
// The inspector is not started; its HTTP surface is inspect's own test.
func TestClusterInspector(t *testing.T) {
	snapshot := func(t *testing.T, o clusterOptions) inspect.Snapshot {
		t.Helper()
		o.inspector = inspect.New()
		if err := runCluster(io.Discard, io.Discard, o); err != nil {
			t.Fatal(err)
		}
		return o.inspector.Snapshot()
	}

	s := snapshot(t, clusterOptions{})
	if s.QueriesCompleted != clusterRunQueries || s.P99Ms <= 0 {
		t.Errorf("inspector saw %d queries (p99 %v ms), want %d", s.QueriesCompleted, s.P99Ms, clusterRunQueries)
	}
	if s.RunsObserved != 1 || s.LastRun != "cluster" || len(s.Resources) == 0 {
		t.Errorf("runs observed %d, last %q, %d resources; want the one cluster run with its registry",
			s.RunsObserved, s.LastRun, len(s.Resources))
	}
	domains := 1 + config.DefaultCluster().Nodes
	if s.BarrierRounds == 0 || len(s.DomainClocksUS) != domains || len(s.DomainMailboxDepths) != domains {
		t.Errorf("%d barrier rounds, %d clocks, %d mailboxes; want rounds and one clock per domain (%d)",
			s.BarrierRounds, len(s.DomainClocksUS), len(s.DomainMailboxDepths), domains)
	}
	if s.Cache != nil || s.SLO != nil || s.Anomalies != nil {
		t.Errorf("bare run reported optional blocks: %+v", s)
	}

	if s := snapshot(t, clusterOptions{cache: 32}); s.Cache == nil || s.Cache.Lookups == 0 {
		t.Errorf("cache-on run's cluster_cache block = %+v", s.Cache)
	}

	s = snapshot(t, clusterOptions{
		arrival: "flash", sloMs: 400, sloWindowMs: defaultSLOWindowMS,
		flightDir: t.TempDir(), flightWinMs: defaultFlightWindowMS, detect: true,
	})
	if s.SLO == nil || s.SLO.Queries != flashRunQueries {
		t.Errorf("flash run's slo block = %+v, want %d queries", s.SLO, flashRunQueries)
	}
	if a := s.Anomalies; a == nil || !a.Frozen || a.TriggerDetector != "slo-burn" {
		t.Errorf("flash run's anomalies block = %+v, want frozen by slo-burn", a)
	}
}
