package experiments

import (
	"fmt"

	"repro/internal/cbir"
	"repro/internal/report"
	"repro/internal/workload"
)

// MotivationRow is one point of the recall-vs-compression comparison.
type MotivationRow struct {
	Name             string
	CompressionRatio float64 // 1.0 = full-precision vectors
	BytesVisited     int64   // per query, rerank stage
	Recall           float64
}

// MotivationResult backs the paper's §IV-A argument: compression methods
// (binary codes, product quantisation) cut the data visited by orders of
// magnitude but "significantly penalize the recall accuracy" — which is
// why ReACH keeps full-precision vectors on storage and accelerates the
// exact rerank instead.
type MotivationResult struct {
	Rows []MotivationRow
}

// Motivation runs the functional comparison on a scaled dataset: the exact
// IVF pipeline versus IVF-PQ at two code rates and binary codes, all over
// one IVF clustering at matched probe and candidate counts, scored against
// one exhaustive ground truth. Those two are built first; the rows only
// read them, so they run in parallel. Rows keeps the fixed order exact,
// PQ 8B, PQ 4B, binary.
func Motivation(opts ...Option) (*MotivationResult, error) {
	ds := workload.Synthetic(workload.SyntheticParams{
		N: 8192, D: 32, Clusters: 32, Spread: 0.12, Seed: 2020,
	})
	queries := ds.Queries(16, 0.03, 909)
	params := cbir.SearchParams{Probes: 10, Candidates: 2560, K: 10}
	vecBytes := int64(ds.D()) * 4
	ivf, err := cbir.BuildIndex(ds.Vectors, 32, 20, 11)
	if err != nil {
		return nil, err
	}
	truth, err := cbir.GroundTruth(ds.Vectors, queries, params.K)
	if err != nil {
		return nil, err
	}

	// row scores ix and labels it with its name and code size.
	row := func(name string, ix cbir.Searcher, ratio float64, codeBytes int64) (MotivationRow, error) {
		recall, err := truth.RecallAtK(ix, params)
		if err != nil {
			return MotivationRow{}, err
		}
		return MotivationRow{
			Name:             name,
			CompressionRatio: ratio,
			BytesVisited:     int64(params.Candidates) * codeBytes,
			Recall:           recall,
		}, nil
	}
	pqRow := func(name string, p cbir.PQParams) (MotivationRow, error) {
		ix, err := cbir.BuildPQIndex(ivf, p)
		if err != nil {
			return MotivationRow{}, err
		}
		return row(name, ix, ix.PQ().CompressionRatio(), ix.PQ().CodeBytes())
	}
	builders := []motivationBuilder{
		{"motivation exact", func() (MotivationRow, error) {
			return row("IVF + exact rerank (ReACH design point)", ivf, 1, vecBytes)
		}},
		{"motivation pq8", func() (MotivationRow, error) {
			return pqRow("IVF-PQ, 8B codes", cbir.PQParams{Subspaces: 8, CentroidsPerSub: 256, KMeansIters: 12, Seed: 12})
		}},
		{"motivation pq4", func() (MotivationRow, error) {
			return pqRow("IVF-PQ, 4B codes", cbir.PQParams{Subspaces: 4, CentroidsPerSub: 256, KMeansIters: 12, Seed: 13})
		}},
		{"motivation binary", func() (MotivationRow, error) {
			// Binary codes (64-bit SimHash): the most aggressive compression.
			ix, err := cbir.BuildBinaryIndex(ivf, 64, 111)
			if err != nil {
				return MotivationRow{}, err
			}
			return row("IVF + binary codes (64-bit SimHash)", ix, ix.Encoder().CompressionRatio(), ix.Encoder().CodeBytes())
		}},
	}
	rows, err := mapRuns(buildOptions(opts), builders,
		func(i int) string { return builders[i].name },
		func(b motivationBuilder) (MotivationRow, error) { return b.build() })
	if err != nil {
		return nil, err
	}
	return &MotivationResult{Rows: rows}, nil
}

// motivationBuilder is one independently-buildable row of the comparison.
type motivationBuilder struct {
	name  string
	build func() (MotivationRow, error)
}

// Table renders the comparison.
func (r *MotivationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Motivation (§IV-A) — compression trades recall for data visited",
		Columns: []string{"Method", "Compression", "Bytes visited/query", "Recall@10"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Name,
			fmt.Sprintf("%.0fx", row.CompressionRatio),
			fmt.Sprintf("%d", row.BytesVisited),
			report.F(row.Recall, 3),
		)
	}
	t.AddNote("ReACH's answer: keep full-precision vectors sedentary on storage and move the exact rerank to them")
	return t
}
