// cbir_pipeline reproduces the paper's Listings 2 and 3 in full: the
// billion-scale CBIR meta-accelerator deployed across all three compute
// levels, run for a stream of query batches, with the functional retrieval
// layer (real k-means index, real distance computations, recall check)
// running beside the simulated hierarchy.
//
//	go run ./examples/cbir_pipeline [-batches 8]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/cbir"
	"repro/internal/workload"
	"repro/reach"
)

var batches = flag.Int("batches", 8, "query batches to stream through the pipeline")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	m := workload.DefaultModel()

	// ======================= config.h (Listing 2) ========================
	sys, err := reach.NewSystem() // Table II: 1 on-chip, 4 near-mem, 4 near-storage
	if err != nil {
		return err
	}

	// ReACH::Buffer — fixed data regions.
	if _, err := sys.CreateFixedBuffer("vgg16_param", reach.OnChip, m.CNN.CompressedParamBytes()); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if _, err := sys.CreateFixedBufferAt("centroids", reach.NearMem, m.CentroidStoreBytes()/4, i); err != nil {
			return err
		}
	}
	dbs := make([]*reach.Buffer, 4)
	for i := range dbs {
		dbs[i], err = sys.CreateFixedBufferAt(fmt.Sprintf("feature_db%d", i), reach.NearStor, m.FeatureStoreBytes()/4, i)
		if err != nil {
			return err
		}
	}

	// ReACH::Stream — inter-level communication.
	input, err := sys.CreateStream("Input", reach.CPU, reach.OnChip, reach.Pair, m.BatchImageBytes())
	if err != nil {
		return err
	}
	features, err := sys.CreateStream("Features", reach.OnChip, reach.NearMem, reach.BroadCast, m.BatchFeatureBytes())
	if err != nil {
		return err
	}
	shortlists, err := sys.CreateStream("Shortlists", reach.NearMem, reach.NearStor, reach.BroadCast, m.ShortlistResultBytesPerBatch())
	if err != nil {
		return err
	}
	result, err := sys.CreateStream("Result", reach.NearStor, reach.CPU, reach.Collect, m.ResultBytesPerBatch())
	if err != nil {
		return err
	}

	// ReACH::ACC — register accelerators and bind arguments.
	cnnAcc, err := sys.RegisterAcc("VGG16-VU9P", reach.OnChip)
	if err != nil {
		return err
	}
	if err := errors.Join(cnnAcc.SetArg(0, input), cnnAcc.SetArg(2, features)); err != nil {
		return err
	}
	cnnAcc.SetWork(reach.Work{
		Stage: "FeatureExtraction", MACs: m.FeatureMACsPerBatch(),
		SPMResident: true, OutputBytes: m.BatchFeatureBytes(),
	})

	var sls, knns []*reach.ACC
	for i := 0; i < 4; i++ {
		sl, err := sys.RegisterAcc("GEMM-ZCU9", reach.NearMem)
		if err != nil {
			return err
		}
		if err := errors.Join(sl.SetArg(0, features), sl.SetArg(2, shortlists)); err != nil {
			return err
		}
		sl.SetWork(reach.Work{
			Stage: "ShortlistRetrieval",
			MACs:  m.ShortlistMACsPerBatch() / 4, StreamBytes: m.ShortlistScanBytesPerBatch() / 4,
			OutputBytes: m.ShortlistResultBytesPerBatch() / 4,
		})
		sls = append(sls, sl)

		knn, err := sys.RegisterAcc("KNN-ZCU9", reach.NearStor)
		if err != nil {
			return err
		}
		if err := errors.Join(knn.SetArg(0, shortlists), knn.SetArg(1, dbs[i]), knn.SetArg(2, result)); err != nil {
			return err
		}
		knn.SetWork(reach.Work{
			Stage: "Rerank",
			MACs:  m.RerankMACsPerBatch() / 4, StreamBytes: m.RerankScanBytesPerBatch() / 4,
			Random: true, OutputBytes: m.ResultBytesPerBatch() / 4,
		})
		knns = append(knns, knn)
	}

	if err := sys.Deploy(); err != nil {
		return err
	}

	// ============== functional retrieval (runs beside the sim) ===========
	fmt.Fprintln(w, "building the functional IVF index (scaled dataset)...")
	ds := workload.Synthetic(workload.SyntheticParams{N: 1 << 15, D: 96, Clusters: 64, Spread: 0.08, Seed: 7})
	index, err := cbir.BuildIndex(ds.Vectors, 64, 25, 8)
	if err != nil {
		return err
	}
	params := cbir.SearchParams{Probes: m.Probes, Candidates: 2048, K: m.TopK}

	// ======================= host.cpp (Listing 3) ========================
	fmt.Fprintf(w, "streaming %d query batches through the hierarchy...\n", *batches)
	start := sys.Now()
	var jobs []*reach.Job
	var recallSum float64
	for b := 0; b < *batches; b++ {
		// while (Input.enqueue(new_query_batch)) { ... }
		job, err := sys.Begin()
		if err != nil {
			return err
		}
		if err := job.Enqueue(input); err != nil { // Input.enqueue(new_query_batch)
			return err
		}
		if err := job.Execute(cnnAcc); err != nil { // cnn.execute(threadId)
			return err
		}
		if err := job.Broadcast(features); err != nil {
			return err
		}
		for _, sl := range sls {
			if err := job.Execute(sl); err != nil { // shortlist on every AIM module
				return err
			}
		}
		for _, knn := range knns {
			if err := job.Execute(knn); err != nil { // knn0.execute, knn1.execute, ...
				return err
			}
		}
		if err := job.Collect(result); err != nil { // Result.collect()
			return err
		}
		if err := job.Commit(); err != nil {
			return err
		}
		jobs = append(jobs, job)

		// The functional layer answers the same batch with real math.
		queries := ds.Queries(m.BatchSize, 0.02, int64(100+b))
		truth, err := cbir.GroundTruth(ds.Vectors, queries, params.K)
		if err != nil {
			return err
		}
		recall, err := truth.RecallAtK(index, params)
		if err != nil {
			return err
		}
		recallSum += recall
	}
	sys.Run()

	// ======================= results =====================================
	makespan := jobs[len(jobs)-1].FinishedAt() - start
	fmt.Fprintf(w, "\nfirst batch latency : %v\n", jobs[0].Latency())
	fmt.Fprintf(w, "steady-state period : %.1f ms/batch (pipelined by the GAM)\n",
		makespan.Seconds()*1000/float64(*batches))
	fmt.Fprintf(w, "throughput          : %.2f batches/s, %.1f queries/s\n",
		float64(*batches)/makespan.Seconds(),
		float64(*batches*m.BatchSize)/makespan.Seconds())
	fmt.Fprintf(w, "mean recall@%d       : %.3f (functional layer)\n", m.TopK, recallSum/float64(*batches))
	fmt.Fprintln(w, "\nenergy breakdown (J, whole run):")
	energy := sys.Energy()
	comps := make([]string, 0, len(energy))
	for comp := range energy {
		comps = append(comps, comp)
	}
	sort.Strings(comps)
	for _, comp := range comps {
		if joules := energy[comp]; joules > 0 {
			fmt.Fprintf(w, "  %-20s %.2f\n", comp, joules)
		}
	}
	return nil
}
