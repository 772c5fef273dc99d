package experiments

import (
	"fmt"

	"repro/internal/cbir"
	"repro/internal/report"
	"repro/internal/workload"
)

// RecallPoint is one probes setting.
type RecallPoint struct {
	Probes       int
	Recall       float64
	BytesScanned int64 // modelled full-scale rerank traffic per query
}

// RecallSweepResult traces the IVF recall-vs-probes curve — the knob
// behind the paper's choice of shortlist size: more probes buy recall at
// the cost of proportionally more rerank traffic, which is exactly the
// traffic ReACH pushes off the host interface.
type RecallSweepResult struct {
	Points []*RecallPoint
}

// RecallSweep runs the functional-layer sweep and attaches the modelled
// full-scale rerank bytes each setting implies.
func RecallSweep(m workload.Model, opts ...Option) (*RecallSweepResult, error) {
	// Over-clustering (256 cells over 64 natural clusters) splits each
	// natural neighbourhood across several cells — the regime where the
	// probe count genuinely controls recall.
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 1 << 15, D: 64, Clusters: 64, Spread: 0.1, Seed: 4242,
	})
	ix, err := cbir.BuildIndex(ds.Vectors, 256, 15, 17)
	if err != nil {
		return nil, err
	}
	// Harder queries (larger perturbation) so single-probe search is
	// clearly lossy, and an uncapped candidate budget so every probed
	// cluster is fully scanned (capping the budget while widening the
	// probe set dilutes per-cluster depth and *hurts* recall — an IVF
	// subtlety the tests pin down).
	queries := ds.Queries(16, 0.15, 4321)
	truth, err := cbir.GroundTruth(ds.Vectors, queries, m.TopK)
	if err != nil {
		return nil, err
	}

	probeCounts := []int{1, 2, 4, 8, 16, 32}
	// The index and the ground truth are built once and only read by the
	// probe evaluations, so the sweep points can run in parallel.
	points, err := mapRuns(buildOptions(opts), probeCounts,
		func(i int) string { return fmt.Sprintf("recall probes=%d", probeCounts[i]) },
		func(probes int) (*RecallPoint, error) {
			recall, err := truth.RecallAtK(ix, cbir.SearchParams{
				Probes: probes, Candidates: 1 << 20, K: m.TopK,
			})
			if err != nil {
				return nil, err
			}
			scaled := m
			scaled.Probes = probes
			return &RecallPoint{
				Probes:       probes,
				Recall:       recall,
				BytesScanned: scaled.RerankScanBytesPerQuery(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &RecallSweepResult{Points: points}, nil
}

// Table renders the curve.
func (r *RecallSweepResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Extension — recall vs probes (IVF shortlist size)",
		Columns: []string{"Probes", "Recall@10", "Rerank MB/query (modelled)"},
	}
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.Probes),
			report.F(p.Recall, 3),
			report.F(float64(p.BytesScanned)/1e6, 1),
		)
	}
	t.AddNote("every extra probe adds ~%.0f MB of per-query rerank traffic — the traffic ReACH keeps off the host IO interface", float64(r.Points[1].BytesScanned-r.Points[0].BytesScanned)/1e6)
	return t
}
