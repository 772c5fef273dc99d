package cluster

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Stage labels, matching the single-server pipeline spelling so cluster
// traces and energy attribution line up with the experiments package.
const (
	stageFE = "FeatureExtraction"
	stageSL = "ShortlistRetrieval"
	stageRR = "Rerank"
)

// scaleBytes applies a shard's work fraction to a byte count, never
// rounding a non-empty payload down to zero.
func scaleBytes(b int64, frac float64) int64 {
	s := int64(float64(b) * frac)
	if s < 1 && b > 0 {
		s = 1
	}
	return s
}

// jobPool holds one node's finished job graphs, front-end and shard, for
// the node's next queries to reuse. The node's own event domain owns it:
// it builds, runs, releases and reuses each graph there. A graph never
// moves to another node, since its task kernels point into the node's own
// registry. The lists start empty and grow to the node's peak count of
// jobs in flight.
type jobPool struct {
	fe, shard []*core.Job
}

// pop takes the last graph off list, reset to id, or returns nil when the
// list is empty.
func pop(list *[]*core.Job, id int) *core.Job {
	n := len(*list)
	if n == 0 {
		return nil
	}
	j := (*list)[n-1]
	*list = (*list)[:n-1]
	j.Reset(id)
	return j
}

// feJob returns the front-end half of a cluster query on its home node:
// one batched feature-extraction task on the on-chip accelerator, features
// collected back to the host for the network scatter. Nothing in it
// depends on the query, so a reused graph needs only a reset.
func (p *jobPool) feJob(node *core.System, id int, m workload.Model) (*core.Job, error) {
	if j := pop(&p.fe, id); j != nil {
		return j, nil
	}
	kernel, err := node.Registry().Lookup("CNN-VU9P")
	if err != nil {
		return nil, err
	}
	j := core.NewJob(id)
	n := j.AddTask(accel.Task{
		Name: "fe", Stage: stageFE, Kernel: kernel,
		MACs: m.FeatureMACsPerBatch(), Source: accel.SourceSPM,
	}, accel.OnChip)
	n.OutBytes = m.BatchFeatureBytes()
	n.SinkToHost = true
	return j, nil
}

// shardJob returns one shard's slice of a query on a replica node:
// shortlist retrieval near memory feeding rerank near storage, both scaled
// by frac — this query's share of work landing on this shard. The rerank
// results are collected to the replica's host for the network gather. A
// reused graph keeps its tasks and only has its work rescaled.
func (p *jobPool) shardJob(node *core.System, id int, m workload.Model, frac float64) (*core.Job, error) {
	nm := node.InstanceCount(accel.NearMemory)
	ns := node.InstanceCount(accel.NearStorage)
	j := pop(&p.shard, id)
	if j == nil {
		reg := node.Registry()
		gemm, err := reg.Lookup("GEMM-ZCU9")
		if err != nil {
			return nil, err
		}
		knn, err := reg.Lookup("KNN-ZCU9")
		if err != nil {
			return nil, err
		}
		if nm == 0 || ns == 0 {
			return nil, fmt.Errorf("cluster: shard job needs near-memory and near-storage instances, node has %d/%d", nm, ns)
		}
		j = core.NewJob(id)
		sl := make([]*core.TaskNode, nm)
		for i := range sl {
			sl[i] = j.AddTask(accel.Task{
				Name: fmt.Sprintf("sl%d", i), Stage: stageSL, Kernel: gemm,
				Source: accel.SourceLocalDIMM, Pattern: storage.Sequential,
			}, accel.NearMemory)
			sl[i].Pin = i
		}
		for i := 0; i < ns; i++ {
			n := j.AddTask(accel.Task{
				Name: fmt.Sprintf("rr%d", i), Stage: stageRR, Kernel: knn,
				Source: accel.SourceSSD, Pattern: storage.RandomPages,
			}, accel.NearStorage, sl...)
			n.Pin = i
			n.SinkToHost = true
		}
	}
	// Each level's share of the work splits evenly over its pinned tasks.
	slMACs := m.ShortlistMACsPerBatch() * frac / float64(nm)
	slBytes := scaleBytes(m.ShortlistScanBytesPerBatch(), frac) / int64(nm)
	slOut := scaleBytes(m.ShortlistResultBytesPerBatch(), frac) / int64(nm)
	rrMACs := m.RerankMACsPerBatch() * frac / float64(ns)
	rrBytes := scaleBytes(m.RerankScanBytesPerBatch(), frac) / int64(ns)
	rrOut := scaleBytes(m.ResultBytesPerBatch(), frac) / int64(ns)
	for _, n := range j.Nodes {
		if n.Level == accel.NearMemory {
			n.Spec.MACs, n.Spec.Bytes, n.OutBytes = slMACs, slBytes, slOut
		} else {
			n.Spec.MACs, n.Spec.Bytes, n.OutBytes = rrMACs, rrBytes, rrOut
		}
	}
	return j, nil
}
