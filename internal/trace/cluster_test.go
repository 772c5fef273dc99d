package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runClusterTrace runs a small observed cluster and returns the rendered
// trace JSON.
func runClusterTrace(t *testing.T) []byte {
	t.Helper()
	cfg := config.DefaultCluster()
	m := workload.DefaultModel()
	m.DatasetSize /= 100
	c, err := cluster.New(cfg, m, qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.AttachMulti(c.Multi(), metrics.Options{Interval: sim.FromSeconds(1e-4)})
	rec.Spans = c.AttachSpans()
	for i := 0; i < 12; i++ {
		c.SubmitAt(sim.Time(i) * sim.FromSeconds(5e-4))
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline()
	tl.AddCluster(cfg.Nodes, c.QLog(), rec.Sampler, rec.Spans)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAddClusterProcessGroups(t *testing.T) {
	raw := runClusterTrace(t)
	var parsed []map[string]any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	procs := map[float64]string{}
	lanes := map[string]bool{} // "pid/lane"
	var asyncBegins, asyncEnds, slices int
	for _, e := range parsed {
		pid, _ := e["pid"].(float64)
		switch e["ph"] {
		case "M":
			args, _ := e["args"].(map[string]any)
			if e["name"] == "process_name" {
				procs[pid], _ = args["name"].(string)
			}
			if e["name"] == "thread_name" {
				name, _ := args["name"].(string)
				lanes[procs[pid]+"/"+name] = true
			}
		case "b":
			asyncBegins++
			if e["id"] == "" {
				t.Error("async begin without correlation id")
			}
		case "e":
			asyncEnds++
		case "X":
			slices++
		}
	}
	if procs[1] != "front end" {
		t.Errorf("pid 1 = %q, want front end", procs[1])
	}
	nodes := config.DefaultCluster().Nodes
	for i := 0; i < nodes; i++ {
		if got := procs[float64(clusterNodePID(i))]; !strings.HasPrefix(got, "node ") {
			t.Errorf("pid %d = %q, want a node process", clusterNodePID(i), got)
		}
	}
	if asyncBegins == 0 || asyncBegins != asyncEnds {
		t.Errorf("async query events unbalanced: %d begins, %d ends", asyncBegins, asyncEnds)
	}
	if slices == 0 {
		t.Error("no interval slices")
	}
	// The per-node lane groups the viewer shows: compute, shard and net
	// lanes under the nodes, cache and query lanes under the front end.
	for _, want := range []string{
		"front end/queries", "node 0/fe", "node 0/net in", "node 0/net out",
	} {
		if !lanes[want] {
			t.Errorf("lane %q missing (have %v)", want, lanes)
		}
	}
	sawShard := false
	for l := range lanes {
		if strings.Contains(l, "/shard") {
			sawShard = true
		}
	}
	if !sawShard {
		t.Errorf("no shard lane under any node: %v", lanes)
	}
}

// TestAddClusterIntervalRouting pins the detail-label router.
func TestAddClusterIntervalRouting(t *testing.T) {
	cases := []struct {
		detail string
		pid    int
		lane   string
	}{
		{"fe-cache", clusterFEPID, "cache"},
		{"fe-coalesce", clusterFEPID, "cache"},
		{"client-node2", clusterNodePID(2), "net in"},
		{"node3", clusterNodePID(3), "fe"},
		{"node1-node2", clusterNodePID(2), "net in"},
		{"shard2@node1", clusterNodePID(1), "shard2"},
		{"node2-fe", clusterNodePID(2), "net out"},
		{"", clusterFEPID, "queries"},
		{"mystery", clusterFEPID, "queries"},
	}
	for _, c := range cases {
		pid, lane := clusterIntervalLane(qtrace.Interval{Detail: c.detail})
		if pid != c.pid || lane != c.lane {
			t.Errorf("%q → (%d, %q), want (%d, %q)", c.detail, pid, lane, c.pid, c.lane)
		}
	}
}

// TestAddClusterCounterRouting pins the series-name router.
func TestAddClusterCounterRouting(t *testing.T) {
	cases := []struct {
		name    string
		node    int
		display string
		ok      bool
	}{
		{"node3.gam.readyq", 3, "gam.readyq", true},
		{"cluster.net.node2.out", 2, "net.out", true},
		{"cluster.net.fe.in", 0, "", false},
		{"cluster.fe.cache", 0, "", false},
		{"sim.domain4", 0, "", false},
	}
	for _, c := range cases {
		n, display, ok := nodeSeriesName(c.name)
		if ok != c.ok || (ok && (n != c.node || display != c.display)) {
			t.Errorf("%q → (%d, %q, %v), want (%d, %q, %v)",
				c.name, n, display, ok, c.node, c.display, c.ok)
		}
	}
}

// TestAddClusterDeterministic: the rendered trace is byte-identical
// between identical runs — it is a pure function of the simulation.
func TestAddClusterDeterministic(t *testing.T) {
	if !bytes.Equal(runClusterTrace(t), runClusterTrace(t)) {
		t.Fatal("trace JSON diverges between identical runs")
	}
}
