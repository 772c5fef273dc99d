package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// digestGraph writes every field a job builder sets on each node of j,
// float fields by their bits, and the node's dependents by index.
func digestGraph(h hash.Hash, j *core.Job) {
	idx := make(map[*core.TaskNode]int, len(j.Nodes))
	for i, n := range j.Nodes {
		idx[n] = i
	}
	for _, n := range j.Nodes {
		s := n.Spec
		fmt.Fprintf(h, "%s|%s|%d|%s|%x|%d|%d|%d|%x|%d|%d|%t|", s.Name, s.Stage, n.Level, s.Kernel.Name,
			math.Float64bits(s.MACs), s.Bytes, s.Source, s.Pattern, math.Float64bits(s.RemoteFraction),
			n.Pin, n.OutBytes, n.SinkToHost)
		for _, d := range n.Dependents() {
			fmt.Fprintf(h, "%d,", idx[d])
		}
		fmt.Fprintln(h)
	}
}

// TestStageGraphsPinned pins the task graph of every CBIR job the
// experiments build: each field of each node, for the pipeline under all
// 27 mappings, the granularity and skew sweeps, the Figs. 9-11 stage runs
// and the interleaved shortlist run. A change to how a stage splits into
// tasks fails here before it shows in any table.
func TestStageGraphsPinned(t *testing.T) {
	m := workload.DefaultModel()
	var mappings []RunSpec
	for _, n := range []int{1, 4, 16} {
		for _, mp := range allMappings() {
			mappings = append(mappings, PipelineSpec("", m, mp, n, 1))
		}
	}
	skew, _ := skewSpecs(m)
	interleaved, err := NearMemInterleavedSpec(4, m)
	if err != nil {
		t.Fatal(err)
	}
	stages := func(stage string) []RunSpec {
		specs, _, err := stageSweepSpecs(stage, m)
		if err != nil {
			t.Fatal(err)
		}
		return specs
	}
	groups := []struct {
		name  string
		specs []RunSpec
		want  string
	}{
		{"mappings", mappings, "7c40d7ab3c24c6ef"},
		{"granularity", granularitySpecs(m), "b1f6ec8c0057be5b"},
		{"skew", skew, "189275857c0d0e34"},
		{"fig9", stages(workload.StageFE), "b55f7f54b71202cc"},
		{"fig10", stages(workload.StageSL), "90891da78ba5f7b6"},
		{"fig11", stages(workload.StageRR), "563fdec5f02668ea"},
		{"interleaved", []RunSpec{interleaved}, "8961f2c9a502ce77"},
	}
	for _, g := range groups {
		h := sha256.New()
		for _, s := range g.specs {
			sys, err := s.system()
			if err != nil {
				t.Fatal(err)
			}
			j, err := s.job(sys, 0)
			if err != nil {
				t.Fatal(err)
			}
			digestGraph(h, j)
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != g.want {
			t.Errorf("%s graphs digest %s, want %s", g.name, got, g.want)
		}
	}
}
