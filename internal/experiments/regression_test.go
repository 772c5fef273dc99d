package experiments

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// The simulator is deterministic, so the headline numbers recorded in
// EXPERIMENTS.md are exact. This test pins them tightly: any model or
// calibration change that moves a headline result must consciously update
// both this test and EXPERIMENTS.md.
func TestHeadlineRegression(t *testing.T) {
	m := workload.DefaultModel()

	f13, err := Fig13(m)
	if err != nil {
		t.Fatal(err)
	}
	i := f13.ReACH()
	pin(t, "ReACH throughput gain", f13.ThroughputGain(i), 4.666, 0.01)
	pin(t, "ReACH latency gain", f13.LatencyGain(i), 2.423, 0.01)
	pin(t, "ReACH energy reduction", f13.EnergyReduction(i), 0.597, 0.005)

	f8, err := Fig8(m)
	if err != nil {
		t.Fatal(err)
	}
	pin(t, "Fig8 movement share", f8.MovementShare, 0.784, 0.005)
	pin(t, "Fig8 rerank movement share", f8.StageMovement[workload.StageRR], 0.577, 0.005)
}

func pin(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, pinned at %.3f ± %.3f — update EXPERIMENTS.md if this change is intended",
			name, got, want, tol)
	}
}
