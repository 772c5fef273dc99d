// mapping_explorer sweeps the stage→level mapping space of the CBIR
// pipeline through the public API and ranks every assignment by simulated
// throughput — the quantitative companion to the paper's §IV-B mapping
// argument. The ReACH runtime's decoupling of configuration from host code
// (§III) is what makes this a loop instead of 27 rewrites.
//
//	go run ./examples/mapping_explorer
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/runner"
	"repro/internal/workload"
	"repro/reach"
)

const batches = 6

type assignment struct {
	fe, sl, rr reach.Level
}

func (a assignment) String() string {
	return fmt.Sprintf("FE:%-8v SL:%-8v RR:%-8v", a.fe, a.sl, a.rr)
}

type outcome struct {
	a          assignment
	throughput float64 // batches per second
	latency    float64 // seconds
	energy     float64 // joules per batch
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	m := workload.DefaultModel()
	levels := []reach.Level{reach.OnChip, reach.NearMem, reach.NearStor}

	var assignments []assignment
	for _, fe := range levels {
		for _, sl := range levels {
			for _, rr := range levels {
				assignments = append(assignments, assignment{fe, sl, rr})
			}
		}
	}
	// Each assignment builds its own system, so the 27 evaluations run on
	// the shared worker pool (GOMAXPROCS workers by default).
	results, err := runner.Map(context.Background(), runner.Options{}, assignments,
		func(_ context.Context, _ int, a assignment) (outcome, error) {
			return evaluate(a, m)
		})
	if err != nil {
		return err
	}
	sort.Slice(results, func(i, j int) bool { return results[i].throughput > results[j].throughput })

	fmt.Fprintf(w, "%2s %-40s %10s %12s %10s\n", "#", "mapping", "batches/s", "latency ms", "J/batch")
	for i, o := range results {
		marker := ""
		if o.a == (assignment{reach.OnChip, reach.NearMem, reach.NearStor}) {
			marker = "  <- paper's ReACH mapping"
		}
		fmt.Fprintf(w, "%2d %-40s %10.2f %12.1f %10.1f%s\n",
			i+1, o.a, o.throughput, o.latency*1000, o.energy, marker)
	}
	return nil
}

// evaluate builds a fresh system for the assignment and streams batches
// through it. Stages mapped to a near-data level are split across its four
// instances; stages sharing a level time-multiplex its fabrics.
func evaluate(a assignment, m workload.Model) (outcome, error) {
	sys, err := reach.NewSystem(reach.WithInstances(1, 4, 4))
	if err != nil {
		return outcome{}, err
	}

	input, err := sys.CreateStream("Input", reach.CPU, a.fe, reach.Pair, m.BatchImageBytes())
	if err != nil {
		return outcome{}, err
	}
	feOut, err := sys.CreateStream("Features", a.fe, a.sl, reach.BroadCast, m.BatchFeatureBytes())
	if err != nil {
		return outcome{}, err
	}
	slOut, err := sys.CreateStream("Shortlists", a.sl, a.rr, reach.BroadCast, m.ShortlistResultBytesPerBatch())
	if err != nil {
		return outcome{}, err
	}
	result, err := sys.CreateStream("Result", a.rr, reach.CPU, reach.Collect, m.ResultBytesPerBatch())
	if err != nil {
		return outcome{}, err
	}

	fe, err := registerStage(sys, a.fe, "CNN", reach.Work{
		Stage: "FeatureExtraction", MACs: m.FeatureMACsPerBatch(),
		SPMResident: a.fe == reach.OnChip,
		StreamBytes: pick(a.fe == reach.OnChip, 0, m.CNN.CompressedParamBytes()+m.BatchImageBytes()),
		OutputBytes: m.BatchFeatureBytes(),
	}, input, feOut)
	if err != nil {
		return outcome{}, err
	}
	sl, err := registerStage(sys, a.sl, "GEMM", reach.Work{
		Stage: "ShortlistRetrieval", MACs: m.ShortlistMACsPerBatch(),
		StreamBytes: m.ShortlistScanBytesPerBatch(),
		OutputBytes: m.ShortlistResultBytesPerBatch(),
	}, feOut, slOut)
	if err != nil {
		return outcome{}, err
	}
	rr, err := registerStage(sys, a.rr, "KNN", reach.Work{
		Stage: "Rerank", MACs: m.RerankMACsPerBatch(),
		StreamBytes: m.RerankScanBytesPerBatch(), Random: true, FromStorage: true,
		OutputBytes: m.ResultBytesPerBatch(),
	}, slOut, result)
	if err != nil {
		return outcome{}, err
	}

	if err := sys.Deploy(); err != nil {
		return outcome{}, err
	}
	start := sys.Now()
	var jobs []*reach.Job
	for b := 0; b < batches; b++ {
		j, err := sys.Begin()
		if err != nil {
			return outcome{}, err
		}
		if err := j.Enqueue(input); err != nil {
			return outcome{}, err
		}
		for _, group := range [][]*reach.ACC{fe, sl, rr} {
			for _, acc := range group {
				if err := j.Execute(acc); err != nil {
					return outcome{}, err
				}
			}
		}
		if err := j.Commit(); err != nil {
			return outcome{}, err
		}
		jobs = append(jobs, j)
	}
	sys.Run()

	makespan := (jobs[len(jobs)-1].FinishedAt() - start).Seconds()
	return outcome{
		a:          a,
		throughput: float64(batches) / makespan,
		latency:    jobs[0].Latency().Seconds(),
		energy:     sys.TotalEnergy() / batches,
	}, nil
}

// registerStage deploys the stage kernel on every instance of the level
// (one instance on chip), splitting the per-batch work evenly, and wires
// the streams with explicit directions so same-level hops stay ordered.
func registerStage(sys *reach.System, l reach.Level, kernel string, w reach.Work, in, out *reach.Stream) ([]*reach.ACC, error) {
	name := kernel + "-ZCU9"
	instances := 4
	if l == reach.OnChip {
		name = kernel + "-VU9P"
		instances = 1
	}
	accs := make([]*reach.ACC, 0, instances)
	for i := 0; i < instances; i++ {
		acc, err := sys.RegisterAccAt(name, l, i)
		if err != nil {
			return nil, err
		}
		if in.Src != reach.CPU { // host inputs are handled by Enqueue
			if err := acc.SetInput(0, in); err != nil {
				return nil, err
			}
		} else if err := acc.SetArg(0, in); err != nil {
			return nil, err
		}
		if err := acc.SetOutput(1, out); err != nil {
			return nil, err
		}
		split := w
		split.MACs /= float64(instances)
		if split.StreamBytes > 0 {
			split.StreamBytes /= int64(instances)
		}
		split.OutputBytes /= int64(instances)
		acc.SetWork(split)
		accs = append(accs, acc)
	}
	return accs, nil
}

func pick(cond bool, a, b int64) int64 {
	if cond {
		return a
	}
	return b
}
