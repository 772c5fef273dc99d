package workload

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/storage"
)

// Stage labels used for energy attribution and traces — the three online
// CBIR stages of Fig. 7.
const (
	StageFE = "FeatureExtraction"
	StageSL = "ShortlistRetrieval"
	StageRR = "Rerank"
)

// Stages lists the pipeline stages in order.
func Stages() []string { return []string{StageFE, StageSL, StageRR} }

// kernelFor picks the Table III template for a stage at a level.
func kernelFor(stage string, l accel.Level) string {
	suffix := "-ZCU9"
	if l == accel.OnChip {
		suffix = "-VU9P"
	}
	switch stage {
	case StageFE:
		return "CNN" + suffix
	case StageSL:
		return "GEMM" + suffix
	default:
		return "KNN" + suffix
	}
}

// AddStage appends one batch's share of a stage to j as level l's task
// group, every task depending on every node of deps, and returns the new
// nodes. Task decomposition follows §VI-B/§VI-C: the on-chip accelerator
// runs one batched task; near-data feature extraction runs one image per
// task with duplicated (compressed) parameters; near-data shortlist and
// rerank split the stage into `tasks` equal tasks, task i pinned to
// instance i % instances, where tasks <= 0 means one task per instance.
func AddStage(sys *core.System, j *core.Job, stage string, l accel.Level, m Model, tasks int, deps []*core.TaskNode) ([]*core.TaskNode, error) {
	kernel, err := sys.Registry().Lookup(kernelFor(stage, l))
	if err != nil {
		return nil, err
	}
	n := sys.InstanceCount(l)
	if n == 0 {
		return nil, fmt.Errorf("workload: mapping stage %s to empty level %v", stage, l)
	}
	var nodes []*core.TaskNode
	add := func(name string, t accel.Task, pin int, out int64) {
		t.Name, t.Stage, t.Kernel = name, stage, kernel
		node := j.AddTask(t, l, deps...)
		node.Pin, node.OutBytes, node.SinkToHost = pin, out, stage == StageRR
		nodes = append(nodes, node)
	}

	switch stage {
	case StageFE:
		if l == accel.OnChip {
			// Compressed parameters resident in SRAM.
			add("fe", accel.Task{MACs: m.FeatureMACsPerBatch(), Source: accel.SourceSPM}, -1, m.BatchFeatureBytes())
			break
		}
		// Near-data: one image per task, duplicated parameters per
		// instance (§VI-B "single image per task").
		src := accel.SourceLocalDIMM
		if l == accel.NearStorage {
			src = accel.SourceDeviceDRAM
		}
		for i := 0; i < m.BatchSize; i++ {
			add(fmt.Sprintf("fe%d", i), accel.Task{
				MACs:   m.FeatureMACsPerImage(),
				Bytes:  m.CNN.CompressedParamBytes() + m.ImageBytes(),
				Source: src,
			}, -1, m.VectorBytes())
		}

	case StageSL, StageRR:
		name, macs, bytes, out := "sl", m.ShortlistMACsPerBatch(), m.ShortlistScanBytesPerBatch(), m.ShortlistResultBytesPerBatch()
		src, pattern := accel.SourceLocalDIMM, storage.Sequential
		switch {
		case stage == StageRR:
			// The rerank scan is storage-resident everywhere; the level
			// only changes which interface the bytes cross.
			name, macs, bytes, out = "rr", m.RerankMACsPerBatch(), m.RerankScanBytesPerBatch(), m.ResultBytesPerBatch()
			src, pattern = accel.SourceSSD, storage.RandomPages
		case l == accel.OnChip:
			src = accel.SourceHostDRAM
		case l == accel.NearStorage:
			src = accel.SourceSSD
		}
		if l == accel.OnChip {
			// One batched task, named "sl" or "rr0" as traces know it.
			if stage == StageRR {
				name = "rr0"
			}
			add(name, accel.Task{MACs: macs, Bytes: bytes, Source: src, Pattern: pattern}, -1, out)
			break
		}
		if tasks <= 0 {
			tasks = n
		}
		for i := 0; i < tasks; i++ {
			add(fmt.Sprintf("%s%d", name, i), accel.Task{
				MACs:   macs / float64(tasks),
				Bytes:  bytes / int64(tasks),
				Source: src, Pattern: pattern,
			}, i%n, out/int64(tasks))
		}

	default:
		return nil, fmt.Errorf("workload: unknown stage %q", stage)
	}
	return nodes, nil
}
