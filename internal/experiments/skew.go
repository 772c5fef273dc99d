package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SkewCell is one (zipf exponent, placement) measurement.
type SkewCell struct {
	Zipf       float64
	Placement  workload.Placement
	Imbalance  float64
	Throughput float64
	Latency    sim.Time
}

// SkewResult extends the evaluation with query skew: the paper's rerank
// stage assumes probed clusters spread evenly over the SSDs, but popular
// clusters concentrate load on whichever device holds them. The experiment
// runs the ReACH pipeline with per-instance rerank bytes proportional to
// each SSD's share of a Zipf-skewed cluster popularity profile, under
// naive contiguous placement and popularity-aware round-robin placement.
type SkewResult struct {
	Cells []*SkewCell
}

// skewAxes enumerates the sweep's (zipf exponent, placement) grid in row
// order.
func skewAxes() (zipfs []float64, placements []workload.Placement) {
	return []float64{0, 0.8, 1.2},
		[]workload.Placement{workload.PlaceContiguous, workload.PlaceRoundRobin}
}

// skewSpecs is the run matrix: the ReACH pipeline once per grid cell, with
// rerank bytes split per the cell's load shares instead of evenly.
func skewSpecs(m workload.Model) (specs []RunSpec, loads [][]float64) {
	const instances = 4
	zipfs, placements := skewAxes()
	for _, s := range zipfs {
		for _, p := range placements {
			load := workload.ShardLoad(workload.ZipfWeights(m.Centroids, s), instances, p)
			loads = append(loads, load)
			specs = append(specs, RunSpec{
				Name:      fmt.Sprintf("skew zipf=%.1f %v", s, p),
				Model:     m,
				Mapping:   ReACHMapping(),
				Instances: instances,
				Batches:   6,
				BuildJob: func(sys *core.System, id int) (*core.Job, error) {
					return buildSkewedJob(sys, id, m, load)
				},
			})
		}
	}
	return specs, loads
}

// SkewExperiment runs the sweep.
func SkewExperiment(m workload.Model, opts ...Option) (*SkewResult, error) {
	specs, loads := skewSpecs(m)
	runs, err := RunSpecs(specs, opts...)
	if err != nil {
		return nil, err
	}
	res := &SkewResult{}
	zipfs, placements := skewAxes()
	i := 0
	for _, s := range zipfs {
		for _, p := range placements {
			res.Cells = append(res.Cells, &SkewCell{
				Zipf:       s,
				Placement:  p,
				Imbalance:  workload.ImbalanceFactor(loads[i]),
				Throughput: runs[i].ThroughputBatchesPerSec(),
				Latency:    runs[i].Latency,
			})
			i++
		}
	}
	return res, nil
}

// buildSkewedJob is BuildPipelineJob with the rerank work split per the
// load shares instead of evenly: rerank task i runs on instance i, so
// shares[i] is its fraction of the batch.
func buildSkewedJob(sys *core.System, id int, m workload.Model, shares []float64) (*core.Job, error) {
	j, err := BuildPipelineJob(sys, id, m, ReACHMapping())
	if err != nil {
		return nil, err
	}
	for _, n := range j.Nodes {
		if n.Spec.Stage == workload.StageRR {
			share := shares[n.Pin]
			n.Spec.MACs = m.RerankMACsPerBatch() * share
			n.Spec.Bytes = int64(float64(m.RerankScanBytesPerBatch()) * share)
		}
	}
	return j, nil
}

// Table renders the sweep.
func (r *SkewResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Extension — query skew vs cluster placement (ReACH mapping, 4 SSDs)",
		Columns: []string{"Zipf s", "Placement", "Imbalance x", "Batches/s", "Latency ms"},
	}
	for _, c := range r.Cells {
		t.AddRow(
			report.F(c.Zipf, 1),
			c.Placement.String(),
			report.F(c.Imbalance, 2),
			report.F(c.Throughput, 2),
			report.F(c.Latency.Milliseconds(), 1),
		)
	}
	t.AddNote("skewed popularity concentrates rerank load on the SSD holding hot clusters; popularity-aware placement restores balance")
	return t
}
