package cluster

import (
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/workload"
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
	j := core.NewJob(id)
	fe, err := workload.AddStage(node, j, workload.StageFE, accel.OnChip, m, 0, nil)
	if err != nil {
		return nil, err
	}
	fe[0].SinkToHost = true
	return j, nil
}

// shardJob returns one shard's slice of a query on a replica node:
// shortlist retrieval near memory feeding rerank near storage, both scaled
// by frac — this query's share of work landing on this shard. The rerank
// results are collected to the replica's host for the network gather. A
// reused graph keeps its tasks and only has its work rescaled.
func (p *jobPool) shardJob(node *core.System, id int, m workload.Model, frac float64) (*core.Job, error) {
	j := pop(&p.shard, id)
	if j == nil {
		j = core.NewJob(id)
		sl, err := workload.AddStage(node, j, workload.StageSL, accel.NearMemory, m, 0, nil)
		if err != nil {
			return nil, err
		}
		if _, err := workload.AddStage(node, j, workload.StageRR, accel.NearStorage, m, 0, sl); err != nil {
			return nil, err
		}
	}
	// Each level's share of the work splits evenly over its pinned tasks.
	nm := int64(node.InstanceCount(accel.NearMemory))
	ns := int64(node.InstanceCount(accel.NearStorage))
	slMACs := m.ShortlistMACsPerBatch() * frac / float64(nm)
	slBytes := scaleBytes(m.ShortlistScanBytesPerBatch(), frac) / nm
	slOut := scaleBytes(m.ShortlistResultBytesPerBatch(), frac) / nm
	rrMACs := m.RerankMACsPerBatch() * frac / float64(ns)
	rrBytes := scaleBytes(m.RerankScanBytesPerBatch(), frac) / ns
	rrOut := scaleBytes(m.ResultBytesPerBatch(), frac) / ns
	for _, n := range j.Nodes {
		if n.Level == accel.NearMemory {
			n.Spec.MACs, n.Spec.Bytes, n.OutBytes = slMACs, slBytes, slOut
		} else {
			n.Spec.MACs, n.Spec.Bytes, n.OutBytes = rrMACs, rrBytes, rrOut
		}
	}
	return j, nil
}
