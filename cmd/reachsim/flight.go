package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// The flight bundle is assembled here, not inside internal/flight: the
// recorder deliberately knows nothing about the cluster, the straggler
// table or the trace renderer (no import cycles, no coupling), so the cmd
// layer pulls the windowed views out of the recorder and feeds them to
// the same exporters a full run uses. Every byte is a function of
// deterministic simulation state, so a bundle is identical on every run.

// bundleVerdict decorates the recorder's verdict with cluster-level
// attribution only this layer can compute: the dominant straggler cause
// across the retained window and the retained-query count.
type bundleVerdict struct {
	flight.Verdict
	// DominantCause is the most frequent critical-leg cause (queue, exec,
	// wire) among the window's scattered merges, "" if none merged.
	DominantCause string `json:"dominant_cause,omitempty"`
	// WindowQueries is how many completed queries the window retained.
	WindowQueries int `json:"window_queries"`
}

// writeFlightBundle cuts one self-contained diagnostic bundle directory
// under dir and returns its path: verdict.json (detector verdict with the
// triggering time series and window attribution), trace.json (windowed
// Chrome trace — retained query timelines, windowed counters and spans),
// stragglers.txt (the straggler table restricted to retained queries),
// domains.json (the barrier-sample ring) and state.json (end-of-run
// router and cache state). The directory is bundle-<trigger µs>us for a
// triggered freeze, bundle-final for an end-of-run dump.
func writeFlightBundle(dir string, fr *flight.Recorder, cl *cluster.Cluster, nodes int, rec *metrics.MultiRecorder) (string, error) {
	v := fr.Verdict()
	name := "bundle-final"
	if fr.Frozen() {
		name = fmt.Sprintf("bundle-%dus", int64(v.TriggerMS*1000))
	}
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(path, 0o755); err != nil {
		return "", err
	}

	from, to := fr.Window()
	wq := fr.WindowQueries(cl.QLog())
	recs := cl.Stragglers(wq)

	bv := bundleVerdict{
		Verdict:       v,
		DominantCause: cluster.DominantCause(recs),
		WindowQueries: len(wq),
	}
	if err := writeBundleJSON(filepath.Join(path, "verdict.json"), bv); err != nil {
		return "", err
	}

	tl := trace.NewTimeline()
	var counters metrics.Source
	var spans []*metrics.SpanLog
	if rec != nil {
		counters = metrics.WindowOf(rec.Sampler, from, to)
		spans = metrics.WindowSpans(rec.Spans, from, to)
	}
	tl.AddCluster(nodes, wq, counters, spans)
	if err := writeFile(filepath.Join(path, "trace.json"), tl.WriteJSON); err != nil {
		return "", err
	}

	err := writeFile(filepath.Join(path, "stragglers.txt"), func(w io.Writer) error {
		if st := cluster.StragglerTable(recs); st != nil {
			return st.Render(w)
		}
		_, err := fmt.Fprintln(w, "no scattered merges completed in the retained window")
		return err
	})
	if err != nil {
		return "", err
	}

	domains := struct {
		WindowFromUS float64                `json:"window_from_us"`
		WindowToUS   float64                `json:"window_to_us"`
		Samples      []flight.BarrierSample `json:"samples"`
	}{
		WindowFromUS: from.Microseconds(),
		WindowToUS:   to.Microseconds(),
		Samples:      fr.BarrierWindow(),
	}
	if err := writeBundleJSON(filepath.Join(path, "domains.json"), domains); err != nil {
		return "", err
	}

	rt := cl.RouterStats()
	state := struct {
		Submitted     int                 `json:"submitted"`
		Completed     int                 `json:"completed"`
		RoutePolicy   string              `json:"route_policy"`
		RouterRouted  []uint64            `json:"router_routed"`
		RouterPeak    []int               `json:"router_peak"`
		Imbalance     float64             `json:"imbalance"`
		PeakImbalance float64             `json:"peak_imbalance"`
		Cache         *cluster.CacheStats `json:"cache,omitempty"`
	}{
		Submitted:     cl.Submitted(),
		Completed:     cl.Completed(),
		RoutePolicy:   rt.Policy().String(),
		RouterRouted:  rt.Routed(),
		RouterPeak:    rt.Peak(),
		Imbalance:     rt.Imbalance(),
		PeakImbalance: rt.PeakImbalance(),
	}
	if cl.CacheEnabled() {
		cs := cl.CacheStats()
		state.Cache = &cs
	}
	if err := writeBundleJSON(filepath.Join(path, "state.json"), state); err != nil {
		return "", err
	}
	return path, nil
}

// writeBundleJSON writes v as indented JSON with a trailing newline.
func writeBundleJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
