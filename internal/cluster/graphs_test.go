package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/qtrace"
	"repro/internal/workload"
)

// graphDigest hashes every field a job builder sets on each node of j,
// float fields by their bits, and the node's dependents by index.
func graphDigest(j *core.Job) string {
	h := sha256.New()
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
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestStageGraphsPinned pins the front-end and shard graphs a node
// builds, fresh and after a Reset and reuse, at the whole query's work
// and at the hot shard's skewed share: a reused graph must carry exactly
// the fields a fresh one does.
func TestStageGraphsPinned(t *testing.T) {
	c, err := New(config.DefaultCluster(), workload.DefaultModel(), qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node, m, p := c.nodes[0], c.model, &c.pools[0]
	hot := c.shardFrac(0, 0)
	check := func(name string, j *core.Job, err error, want string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got := graphDigest(j); got != want {
			t.Errorf("%s graph digest %s, want %s", name, got, want)
		}
	}

	fe, err := p.feJob(node, 0, m)
	check("fresh front-end", fe, err, "08c0979326e3da33")
	p.fe = append(p.fe, fe)
	fe, err = p.feJob(node, 1, m)
	check("reused front-end", fe, err, "08c0979326e3da33")

	whole, err := p.shardJob(node, 2, m, 1)
	check("fresh shard at frac 1", whole, err, "1309eafb18fe2a01")
	skewed, err := p.shardJob(node, 3, m, hot)
	check("fresh shard at the hot frac", skewed, err, "2613e5ec89d29a9a")
	p.shard = append(p.shard, whole, skewed)
	j, err := p.shardJob(node, 4, m, 1)
	check("reused hot shard at frac 1", j, err, "1309eafb18fe2a01")
	j, err = p.shardJob(node, 5, m, hot)
	check("reused whole shard at the hot frac", j, err, "2613e5ec89d29a9a")
}
