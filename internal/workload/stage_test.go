package workload

import (
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/core"
)

// TestAddStageConservesWork: however a near-data shortlist or rerank stage
// is split, its tasks carry the stage's whole work. MACs sum to the stage
// total; Bytes and OutBytes, divided in whole bytes, fall short of it by
// less than one byte per task. Every task is pinned to an existing
// instance and every rerank task waits on every shortlist task.
func TestAddStageConservesWork(t *testing.T) {
	m := DefaultModel()
	for n := 1; n <= 16; n++ {
		sys, err := core.NewSystem(config.Default().WithInstances(0, n, n))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []accel.Level{accel.NearMemory, accel.NearStorage} {
			for _, tasks := range []int{0, 1, 3, 4, 7, 64} {
				j := core.NewJob(0)
				sl, err := AddStage(sys, j, StageSL, l, m, tasks, nil)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := AddStage(sys, j, StageRR, l, m, tasks, sl)
				if err != nil {
					t.Fatal(err)
				}
				want := tasks
				if tasks <= 0 {
					want = n
				}
				for _, st := range []struct {
					name       string
					nodes      []*core.TaskNode
					macs       float64
					bytes, out int64
				}{
					{StageSL, sl, m.ShortlistMACsPerBatch(), m.ShortlistScanBytesPerBatch(), m.ShortlistResultBytesPerBatch()},
					{StageRR, rr, m.RerankMACsPerBatch(), m.RerankScanBytesPerBatch(), m.ResultBytesPerBatch()},
				} {
					if len(st.nodes) != want {
						t.Fatalf("%s@%v n=%d tasks=%d: %d tasks, want %d", st.name, l, n, tasks, len(st.nodes), want)
					}
					var macs float64
					var bytes, out int64
					for _, node := range st.nodes {
						macs += node.Spec.MACs
						bytes += node.Spec.Bytes
						out += node.OutBytes
						if node.Pin < 0 || node.Pin >= n {
							t.Errorf("%s@%v n=%d tasks=%d: %s pinned to instance %d", st.name, l, n, tasks, node.Spec.Name, node.Pin)
						}
					}
					if math.Abs(macs-st.macs) > 1e-12*st.macs {
						t.Errorf("%s@%v n=%d tasks=%d: MACs sum to %v, stage has %v", st.name, l, n, tasks, macs, st.macs)
					}
					for _, b := range []struct {
						what       string
						got, total int64
					}{{"Bytes", bytes, st.bytes}, {"OutBytes", out, st.out}} {
						if short := b.total - b.got; short < 0 || short >= int64(want) {
							t.Errorf("%s@%v n=%d tasks=%d: %s sum to %d, stage has %d", st.name, l, n, tasks, b.what, b.got, b.total)
						}
					}
				}
				for _, s := range sl {
					deps := s.Dependents()
					if len(deps) != len(rr) {
						t.Fatalf("@%v n=%d tasks=%d: %s feeds %d rerank tasks, want %d", l, n, tasks, s.Spec.Name, len(deps), len(rr))
					}
					for i, d := range deps {
						if d != rr[i] {
							t.Errorf("@%v n=%d tasks=%d: %s feeds %s, want %s", l, n, tasks, s.Spec.Name, d.Spec.Name, rr[i].Spec.Name)
						}
					}
				}
			}
		}
	}
}
