// Command cbir runs the complete content-based image retrieval case study
// end to end: the functional pipeline (real CNN feature extraction on
// synthetic images, k-means IVF index, shortlist retrieval, KNN rerank,
// recall against exhaustive search) coupled with the ReACH simulator's
// timing and energy for the same batch on the paper's optimized mapping.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cbir"
	"repro/internal/cnn"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/workload"
)

// options holds the command's flags.
type options struct {
	n, clusters, batch, probes, cands, topk int
	seed                                    int64
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses and checks the flags, then runs the case study, and returns
// the process exit code: 2 for a flag that does not parse, 1 for an
// out-of-range flag or a failed run.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbir", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.n, "n", 1<<15, "functional database size")
	fs.IntVar(&o.clusters, "clusters", 64, "IVF clusters (k-means k)")
	fs.IntVar(&o.batch, "batch", 16, "query batch size")
	fs.IntVar(&o.probes, "probes", 8, "shortlisted clusters per query")
	fs.IntVar(&o.cands, "candidates", 2048, "rerank candidates per query")
	fs.IntVar(&o.topk, "k", 10, "results per query")
	fs.Int64Var(&o.seed, "seed", 42, "deterministic seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := o.validate()
	if err == nil {
		err = run(stdout, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cbir:", err)
		return 1
	}
	return 0
}

// validate rejects flag values the pipeline cannot run with, before any
// dataset is built.
func (o options) validate() error {
	switch {
	case o.n < 1:
		return fmt.Errorf("-n must be at least 1, got %d", o.n)
	case o.clusters < 1 || o.clusters > o.n:
		return fmt.Errorf("-clusters must be in [1, -n=%d], got %d", o.n, o.clusters)
	case o.batch < 1:
		return fmt.Errorf("-batch must be at least 1, got %d", o.batch)
	case o.probes < 1 || o.probes > o.clusters:
		return fmt.Errorf("-probes must be in [1, -clusters=%d], got %d", o.clusters, o.probes)
	case o.cands < 1:
		return fmt.Errorf("-candidates must be at least 1, got %d", o.cands)
	case o.topk < 1:
		return fmt.Errorf("-k must be at least 1, got %d", o.topk)
	}
	return nil
}

func run(w io.Writer, o options) error {
	// ---- Offline stage: dataset + IVF index -----------------------------
	fmt.Fprintf(w, "building synthetic dataset: %d vectors, D=96, %d natural clusters\n", o.n, o.clusters)
	ds := workload.Synthetic(workload.SyntheticParams{
		N: o.n, D: 96, Clusters: o.clusters, Spread: 0.08, Seed: o.seed,
	})
	fmt.Fprintf(w, "clustering with k-means (k=%d)...\n", o.clusters)
	index, err := cbir.BuildIndex(ds.Vectors, o.clusters, 25, o.seed+1)
	if err != nil {
		return err
	}
	lo, med, hi := index.ListSizeStats()
	fmt.Fprintf(w, "index built: cluster sizes min/median/max = %d/%d/%d\n", lo, med, hi)

	// ---- Online stage: feature extraction (real CNN forward passes) -----
	fmt.Fprintf(w, "extracting features from %d synthetic query images (MiniVGG)...\n", o.batch)
	net, err := cnn.NewNetwork(cnn.MiniVGG(32, 128), o.seed+2)
	if err != nil {
		return err
	}
	fe := cnn.NewFeatureExtractor(net, 96, o.seed+3)
	images := workload.Images(o.batch, 3, 32, 32, o.seed+4)
	queries := kernels.NewMatrix(o.batch, 96)
	for i, img := range images {
		feat, err := fe.Extract(img)
		if err != nil {
			return err
		}
		copy(queries.Row(i), feat)
	}
	// The CNN features live in their own space; for the retrieval-quality
	// demonstration we query with perturbed database vectors, the standard
	// recall protocol (paper §IV-A).
	dbQueries := ds.Queries(o.batch, 0.02, o.seed+5)

	// ---- Shortlist retrieval + rerank -----------------------------------
	params := cbir.SearchParams{Probes: o.probes, Candidates: o.cands, K: o.topk}
	results, err := index.Search(dbQueries, params)
	if err != nil {
		return err
	}
	truth, err := cbir.GroundTruth(ds.Vectors, dbQueries, o.topk)
	if err != nil {
		return err
	}
	recall, err := truth.Recall(results)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nquery 0 top-%d: ", o.topk)
	for _, r := range results[0] {
		fmt.Fprintf(w, "%d(%.4f) ", r.ID, r.Dist)
	}
	fmt.Fprintf(w, "\nmean recall@%d vs exhaustive search: %.3f\n\n", o.topk, recall)

	// ---- Simulated deployment on ReACH ----------------------------------
	fmt.Fprintln(w, "simulating the same batch on the ReACH hierarchy (paper mapping)...")
	m := workload.DefaultModel()
	m.BatchSize = o.batch
	m.Probes = o.probes
	m.TopK = o.topk
	r13, err := experiments.Fig13(m)
	if err != nil {
		return err
	}
	if err := r13.Table().Render(w); err != nil {
		return err
	}
	return nil
}
