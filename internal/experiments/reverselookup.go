package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// StageRL labels the reverse-lookup stage.
const StageRL = "ReverseLookup"

// ReverseLookupResult quantifies the paper's decision to exclude the final
// reverse-lookup stage from its experiments ("due to its huge storage
// requirements", §IV-B): the stage needs a 200 TB–2 PB image store, but
// its online cost is a K-image gather per query — tiny next to the rerank
// scan. The experiment runs the ReACH pipeline with and without a fourth
// stage that fetches the top-K images from the (modelled) image store and
// reports the marginal cost.
type ReverseLookupResult struct {
	ImageBytes       int64 // mean stored image size
	FetchPerBatch    int64
	BaseThroughput   float64
	WithRLThroughput float64
	BaseLatency      sim.Time
	WithRLLatency    sim.Time
}

// reverseLookupSpecs is the run matrix: the paper's three-stage pipeline,
// then the same pipeline with the reverse-lookup stage chained behind the
// rerank nodes.
func reverseLookupSpecs(m workload.Model, imageBytes int64, batches int) []RunSpec {
	base := PipelineSpec("reverselookup base", m, ReACHMapping(), 4, batches)
	with := RunSpec{
		Name:      "reverselookup with-rl",
		Model:     m,
		Mapping:   ReACHMapping(),
		Instances: 4,
		Batches:   batches,
		BuildJob: func(sys *core.System, id int) (*core.Job, error) {
			return buildReverseLookupJob(sys, id, m, imageBytes)
		},
	}
	return []RunSpec{base, with}
}

// buildReverseLookupJob is BuildPipelineJob with a fourth stage: the RR
// nodes no longer sink to the host; instead the reverse lookup gathers the
// top-K images (page-granular) from the image store striped over the SSDs,
// then returns the images to the host.
func buildReverseLookupJob(sys *core.System, id int, m workload.Model, imageBytes int64) (*core.Job, error) {
	knn, err := sys.Registry().Lookup("KNN-ZCU9")
	if err != nil {
		return nil, err
	}
	j, err := BuildPipelineJob(sys, id, m, ReACHMapping())
	if err != nil {
		return nil, err
	}
	var rrNodes []*core.TaskNode
	for _, n := range j.Nodes {
		if n.Spec.Stage == workload.StageRR {
			n.SinkToHost = false
			rrNodes = append(rrNodes, n)
		}
	}
	perInstance := int64(m.TopK) * imageBytes * int64(m.BatchSize) / 4
	for i := 0; i < 4; i++ {
		rl := j.AddTask(accel.Task{
			Name: fmt.Sprintf("rl%d", i), Stage: StageRL, Kernel: knn,
			MACs:   1, // database access: negligible compute (Table I "very low")
			Bytes:  perInstance,
			Source: accel.SourceSSD, Pattern: storage.RandomPages,
		}, accel.NearStorage, rrNodes...)
		rl.Pin = i
		rl.OutBytes = perInstance // the images themselves go to the host
		rl.SinkToHost = true
	}
	return j, nil
}

// ReverseLookup runs the comparison. Images average 200 KB (the paper's
// 200 TB bound for a billion images).
func ReverseLookup(m workload.Model, opts ...Option) (*ReverseLookupResult, error) {
	const imageBytes = 200 << 10
	fetch := int64(m.TopK) * imageBytes * int64(m.BatchSize)

	runs, err := RunSpecs(reverseLookupSpecs(m, imageBytes, 6), opts...)
	if err != nil {
		return nil, err
	}
	base, with := runs[0], runs[1]
	return &ReverseLookupResult{
		ImageBytes:       imageBytes,
		FetchPerBatch:    fetch,
		BaseThroughput:   base.ThroughputBatchesPerSec(),
		WithRLThroughput: with.ThroughputBatchesPerSec(),
		BaseLatency:      base.Latency,
		WithRLLatency:    with.Latency,
	}, nil
}

// ThroughputCost reports the fractional throughput lost to the stage.
func (r *ReverseLookupResult) ThroughputCost() float64 {
	return 1 - r.WithRLThroughput/r.BaseThroughput
}

// Table renders the comparison.
func (r *ReverseLookupResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Appendix — reverse lookup stage (excluded by the paper; marginal cost)",
		Columns: []string{"Pipeline", "Batches/s", "Latency ms"},
	}
	t.AddRow("FE-SL-RR (paper's experiments)", report.F(r.BaseThroughput, 2),
		report.F(r.BaseLatency.Milliseconds(), 1))
	t.AddRow("FE-SL-RR-RL (with image fetch)", report.F(r.WithRLThroughput, 2),
		report.F(r.WithRLLatency.Milliseconds(), 1))
	t.AddNote("image store: %d KB/image ⇒ %d MB fetched per batch; throughput cost %s",
		r.ImageBytes>>10, r.FetchPerBatch>>20, report.Pct(r.ThroughputCost()))
	t.AddNote("the stage's burden is the 200 TB-2 PB capacity, not the online traffic — the paper's exclusion is sound")
	return t
}
