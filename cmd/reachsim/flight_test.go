package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// bundleFiles is every file a flight bundle must contain.
var bundleFiles = []string{
	"verdict.json", "trace.json", "stragglers.txt", "domains.json", "state.json",
}

// readBundle finds the single bundle directory under dir and returns its
// base name plus each file's bytes.
func readBundle(t *testing.T, dir string) (string, map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("want exactly one bundle directory, got %v", names)
	}
	name := entries[0].Name()
	files := map[string][]byte{}
	for _, f := range bundleFiles {
		raw, err := os.ReadFile(filepath.Join(dir, name, f))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
		files[f] = raw
	}
	return name, files
}

// TestClusterFlightDetection is the flight recorder's acceptance bar:
// the pinned flash-crowd run (-cluster -slo 400 -flight -detect -arrival
// flash) fires the SLO burn-rate detector exactly once, at 3680.511 ms,
// and the frozen window's straggler attribution is queue-dominated (the
// burst's signature: GAM ready-queue wait, not compute, stretches the
// tail).
func TestClusterFlightDetection(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := runCluster(&out, io.Discard, clusterOptions{
		flightDir: dir,
		detect:    true,
		arrival:   "flash",
		sloMs:     400,
	})
	if err != nil {
		t.Fatal(err)
	}
	bundle, files := readBundle(t, dir)
	if bundle != "bundle-3680510us" {
		t.Errorf("bundle %q, want bundle-3680510us (named for its trigger time)", bundle)
	}

	var v struct {
		Detector      string  `json:"detector"`
		Reason        string  `json:"reason"`
		TriggerMS     float64 `json:"trigger_ms"`
		DominantCause string  `json:"dominant_cause"`
		WindowQueries int     `json:"window_queries"`
		Observed      *struct {
			BurnShort float64 `json:"burn_short"`
			BurnLong  float64 `json:"burn_long"`
			LongN     int     `json:"long_n"`
		} `json:"observed"`
		Series []json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal(files["verdict.json"], &v); err != nil {
		t.Fatalf("verdict.json: %v", err)
	}
	if v.Detector != "slo-burn" || math.Abs(v.TriggerMS-3680.511) > 5e-4 {
		t.Errorf("detector %q at %v ms, want slo-burn at 3680.511 ms", v.Detector, v.TriggerMS)
	}
	if v.DominantCause != "queue" {
		t.Errorf("dominant_cause = %q, want queue (flash crowd saturates the GAM ready queue)", v.DominantCause)
	}
	if v.TriggerMS <= 0 || v.WindowQueries == 0 || len(v.Series) == 0 {
		t.Errorf("verdict not self-contained: trigger_ms=%v window_queries=%d series=%d",
			v.TriggerMS, v.WindowQueries, len(v.Series))
	}
	if v.Observed == nil || v.Observed.BurnShort < 0.5 || v.Observed.BurnLong < 0.5 {
		t.Errorf("observed point does not show a sustained burn: %+v", v.Observed)
	}
	if !strings.Contains(string(files["stragglers.txt"]), "overall dominant cause queue") {
		t.Errorf("stragglers.txt not queue-dominated:\n%s", files["stragglers.txt"])
	}

	var events []map[string]any
	if err := json.Unmarshal(files["trace.json"], &events); err != nil {
		t.Fatalf("bundle trace is not valid Chrome-trace JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("bundle trace is empty")
	}
	var dom struct {
		WindowFromUS float64 `json:"window_from_us"`
		WindowToUS   float64 `json:"window_to_us"`
		Samples      []struct {
			FrontierUS float64 `json:"frontier_us"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(files["domains.json"], &dom); err != nil {
		t.Fatalf("domains.json: %v", err)
	}
	if len(dom.Samples) == 0 || dom.WindowToUS <= dom.WindowFromUS {
		t.Errorf("domains.json window empty: %d samples in [%v, %v]",
			len(dom.Samples), dom.WindowFromUS, dom.WindowToUS)
	}
}

// TestClusterFlightEndOfRunBundle: a disarmed recorder (-flight without
// -detect) on the healthy pinned run never freezes and cuts a
// bundle-final dump whose verdict carries no detector but keeps the
// trailing observability series.
func TestClusterFlightEndOfRunBundle(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := runCluster(&out, io.Discard, clusterOptions{flightDir: dir}); err != nil {
		t.Fatal(err)
	}
	name, files := readBundle(t, dir)
	if name != "bundle-final" {
		t.Errorf("bundle dir = %q, want bundle-final", name)
	}
	var v struct {
		Detector  string            `json:"detector"`
		TriggerMS float64           `json:"trigger_ms"`
		Series    []json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal(files["verdict.json"], &v); err != nil {
		t.Fatal(err)
	}
	if v.Detector != "" || v.TriggerMS != 0 {
		t.Errorf("disarmed run produced a detection: detector=%q at %v ms", v.Detector, v.TriggerMS)
	}
	if len(v.Series) == 0 {
		t.Error("end-of-run verdict lost the observability series")
	}
	// The summary table still matches the unobserved golden — recording
	// never moves a simulated number.
	golden, err := os.ReadFile(filepath.Join("testdata", "cluster_smoke.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), string(golden)) {
		t.Errorf("flight-on run's summary diverged from cluster_smoke.golden:\n%s", out.String())
	}
}

// TestClusterFlightWithFullObservability: the flight recorder composes
// with every other sink (metrics, spans, trace, SLO table) — the
// barrier tee carries both observers and the bundle embeds windowed
// counters and spans.
func TestClusterFlightWithFullObservability(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := runCluster(&out, io.Discard, clusterOptions{
		flightDir: dir,
		detect:    true,
		arrival:   "flash",
		sloMs:     400,
		metrics:   &metrics.Options{Spans: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, files := readBundle(t, dir)
	var events []map[string]any
	if err := json.Unmarshal(files["trace.json"], &events); err != nil {
		t.Fatal(err)
	}
	var counters, spans int
	for _, e := range events {
		switch e["ph"] {
		case "C":
			counters++
		case "X":
			if cat, _ := e["cat"].(string); strings.HasPrefix(cat, "gam.") {
				spans++
			}
		}
	}
	if counters == 0 || spans == 0 {
		t.Errorf("bundle trace missing windowed observability: %d counters, %d gam spans",
			counters, spans)
	}
}

// BenchmarkClusterRunFlight measures the pinned -cluster run end to end
// with the flight recorder off, recording-only, and fully armed
// (detectors evaluated on every completion). The off/armed delta is the
// PR's headline overhead number. The armed case uses a 2 s objective the
// healthy run never breaches, so the detectors evaluate on every
// completion instead of freezing early and going quiet.
func BenchmarkClusterRunFlight(b *testing.B) {
	for _, bc := range []struct {
		name string
		opt  func(dir string) clusterOptions
	}{
		{"off", func(string) clusterOptions { return clusterOptions{} }},
		{"record", func(dir string) clusterOptions { return clusterOptions{flightDir: dir} }},
		{"detect", func(dir string) clusterOptions {
			return clusterOptions{flightDir: dir, detect: true, sloMs: 2000}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := runCluster(io.Discard, io.Discard, bc.opt(b.TempDir())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
