package workload

import (
	"strings"
	"testing"

	"repro/internal/kernels"
)

func TestDefaultModelValidates(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestModelMatchesPaperSetup(t *testing.T) {
	m := DefaultModel()
	if m.BatchSize != 16 {
		t.Errorf("batch = %d, paper uses 16", m.BatchSize)
	}
	if m.Dim != 96 {
		t.Errorf("D = %d, paper uses 96", m.Dim)
	}
	if m.Centroids != 1000 {
		t.Errorf("M = %d, paper uses 1000", m.Centroids)
	}
	if m.RerankCandidates != 4096 {
		t.Errorf("candidates = %d, paper uses 4096", m.RerankCandidates)
	}
	if m.DatasetSize != 1_000_000_000 {
		t.Errorf("N = %d, paper is billion-scale", m.DatasetSize)
	}
}

func TestTableIByteCounts(t *testing.T) {
	m := DefaultModel()
	// Feature store: ~355-384 GB for 1B × 96 × 4B.
	fs := m.FeatureStoreBytes()
	if fs != 384_000_000_000 {
		t.Errorf("feature store = %d, want 384e9 (Table I says ~355 GB)", fs)
	}
	// Centroid + cell store ~2.2 GB.
	cs := m.CentroidStoreBytes()
	if cs < 2.0e9 || cs > 2.4e9 {
		t.Errorf("centroid store = %.2f GB, Table I says ~2.2 GB", float64(cs)/1e9)
	}
	// Model parameters ~552 MB.
	if pb := m.CNN.ParamBytes(); pb < 545e6 || pb > 560e6 {
		t.Errorf("param bytes = %d", pb)
	}
}

func TestTrafficModelCalibration(t *testing.T) {
	m := DefaultModel()
	// Rerank streams Probes × ScanFraction × cluster = 8 × 5% × 384 MB
	// ≈ 153.6 MB per query, ~2.46 GB per batch — the traffic that makes
	// rerank movement dominate Fig. 8 (see DESIGN.md).
	perQuery := m.RerankScanBytesPerQuery()
	if perQuery < 150e6 || perQuery > 160e6 {
		t.Errorf("rerank scan/query = %.1f MB, want ~153.6", float64(perQuery)/1e6)
	}
	perBatch := m.RerankScanBytesPerBatch()
	if perBatch != perQuery*16 {
		t.Errorf("rerank scan/batch = %d, want 16× per-query", perBatch)
	}
	// Shortlist streams the whole 2.2 GB working set per batch.
	if m.ShortlistScanBytesPerBatch() != m.CentroidStoreBytes() {
		t.Error("shortlist scan != centroid store")
	}
	// Inter-level payloads are tiny compared to stage traffic — the point
	// of the ReACH mapping.
	if m.BatchFeatureBytes() >= 1e6 {
		t.Errorf("feature payload = %d B, should be KB-scale", m.BatchFeatureBytes())
	}
	if m.ResultBytesPerBatch() >= 1e6 {
		t.Errorf("result payload = %d B, should be KB-scale", m.ResultBytesPerBatch())
	}
}

func TestMACModel(t *testing.T) {
	m := DefaultModel()
	// FE: ~15.5 GMAC × 16.
	fe := m.FeatureMACsPerBatch()
	if fe < 240e9 || fe > 255e9 {
		t.Errorf("FE MACs/batch = %v", fe)
	}
	// SL GeMM: 16×96×1000 + broadcast adds.
	sl := m.ShortlistMACsPerBatch()
	if sl != 16*96*1000+16*1000 {
		t.Errorf("SL MACs/batch = %v", sl)
	}
	// RR: one MAC per dimension per scanned vector.
	scanned := float64(m.RerankScanBytesPerQuery()) / 384.0
	if got := m.RerankMACsPerQuery(); got != scanned*96 {
		t.Errorf("RR MACs/query = %v, want %v", got, scanned*96)
	}
}

func TestModelValidateCatchesErrors(t *testing.T) {
	cases := []func(*Model){
		func(m *Model) { m.BatchSize = 0 },
		func(m *Model) { m.Dim = -1 },
		func(m *Model) { m.Centroids = 0 },
		func(m *Model) { m.DatasetSize = 0 },
		func(m *Model) { m.Probes = 0 },
		func(m *Model) { m.Probes = m.Centroids + 1 },
		func(m *Model) { m.ScanFraction = 0 },
		func(m *Model) { m.ScanFraction = 1.5 },
		func(m *Model) { m.TopK = 0 },
		func(m *Model) { m.TopK = m.RerankCandidates + 1 },
		func(m *Model) { m.CNN = nil },
	}
	for i, mutate := range cases {
		m := DefaultModel()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

func TestTableIRows(t *testing.T) {
	rows := TableI(DefaultModel())
	if len(rows) != 4 {
		t.Fatalf("Table I has %d rows, want 4", len(rows))
	}
	wantStages := []string{"Feature extraction", "Short-list retrieval", "Rerank", "Reverse lookup"}
	for i, w := range wantStages {
		if rows[i].Stage != w {
			t.Errorf("row %d = %q, want %q", i, rows[i].Stage, w)
		}
	}
	// Memory requirements must be strictly increasing down the pipeline.
	for i := 1; i < len(rows); i++ {
		if rows[i].MemoryBytes <= rows[i-1].MemoryBytes {
			t.Errorf("Table I memory not increasing at row %d", i)
		}
	}
	if !strings.Contains(rows[0].MemoryNote, "compressed") {
		t.Error("FE row should mention compressed size")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	p := SyntheticParams{N: 500, D: 16, Clusters: 8, Spread: 0.1, Seed: 5}
	a, b := Synthetic(p), Synthetic(p)
	for i := range a.Vectors.Data {
		if a.Vectors.Data[i] != b.Vectors.Data[i] {
			t.Fatal("same seed produced different datasets")
		}
	}
	p.Seed = 6
	c := Synthetic(p)
	same := true
	for i := range a.Vectors.Data {
		if a.Vectors.Data[i] != c.Vectors.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestSyntheticClusterStructure(t *testing.T) {
	p := SyntheticParams{N: 2000, D: 24, Clusters: 10, Spread: 0.05, Seed: 9}
	ds := Synthetic(p)
	if ds.N() != 2000 || ds.D() != 24 {
		t.Fatalf("shape %d×%d", ds.N(), ds.D())
	}
	// Every vector must be closest to its own generating centre far more
	// often than chance (tight spread ⇒ ~always).
	correct := 0
	for i := 0; i < ds.N(); i++ {
		best, bestD := -1, float32(1e30)
		for c := 0; c < p.Clusters; c++ {
			if d := kernels.SquaredL2(ds.Vectors.Row(i), ds.Centers.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		if best == ds.TrueCluster[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(ds.N()); frac < 0.95 {
		t.Errorf("only %.2f of vectors nearest their generating centre", frac)
	}
	// Vectors are L2-normalised.
	for i := 0; i < 10; i++ {
		n := kernels.SquaredNorm(ds.Vectors.Row(i))
		if n < 0.99 || n > 1.01 {
			t.Errorf("vector %d norm² = %v", i, n)
		}
	}
}

func TestQueriesNearDatabase(t *testing.T) {
	ds := Synthetic(SyntheticParams{N: 1000, D: 16, Clusters: 4, Spread: 0.05, Seed: 3})
	q := ds.Queries(8, 0.01, 17)
	if q.Rows != 8 || q.Cols != 16 {
		t.Fatalf("query shape %dx%d", q.Rows, q.Cols)
	}
	// Each query's nearest database vector should be very close.
	for b := 0; b < q.Rows; b++ {
		nn := kernels.BruteForceKNN(ds.Vectors, q.Row(b), 1)
		if nn[0].Dist > 0.01 {
			t.Errorf("query %d nearest dist = %v, want tiny", b, nn[0].Dist)
		}
	}
}
