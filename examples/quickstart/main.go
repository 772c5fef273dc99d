// Quickstart: configure a minimal ReACH meta-accelerator and run one batch
// through the simulated hierarchy.
//
//	go run ./examples/quickstart
//
// The program registers one on-chip CNN and one near-storage KNN, wires
// them with a stream (the paper's Listing 2 in miniature), runs a batch
// (Listing 3), and prints the simulated latency and energy breakdown.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/reach"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A system with one accelerator at each level (Table II hardware).
	sys, err := reach.NewSystem(reach.WithInstances(1, 1, 1))
	if err != nil {
		return err
	}

	// --- Configuration (config.h) ----------------------------------------
	// Model parameters live on chip; a 96 GB feature shard on the SSD.
	if _, err := sys.CreateFixedBuffer("vgg16_param", reach.OnChip, 11_300_000); err != nil {
		return err
	}
	db, err := sys.CreateFixedBuffer("feature_db0", reach.NearStor, 96_000_000_000)
	if err != nil {
		return err
	}

	input, err := sys.CreateStream("Input", reach.CPU, reach.OnChip, reach.Pair, 16*224*224*3)
	if err != nil {
		return err
	}
	features, err := sys.CreateStream("Features", reach.OnChip, reach.NearStor, reach.BroadCast, 16*96*4)
	if err != nil {
		return err
	}
	result, err := sys.CreateStream("Result", reach.NearStor, reach.CPU, reach.Collect, 16*10*8)
	if err != nil {
		return err
	}

	cnn, err := sys.RegisterAcc("VGG16-VU9P", reach.OnChip)
	if err != nil {
		return err
	}
	if err := errors.Join(cnn.SetArg(0, input), cnn.SetArg(1, features)); err != nil {
		return err
	}
	cnn.SetWork(reach.Work{
		Stage:       "FeatureExtraction",
		MACs:        16 * 15.47e9, // one VGG16 batch
		SPMResident: true,         // compressed params fit on-chip SRAM
		OutputBytes: 16 * 96 * 4,
	})

	knn, err := sys.RegisterAcc("KNN-ZCU9", reach.NearStor)
	if err != nil {
		return err
	}
	if err := errors.Join(knn.SetArg(0, features), knn.SetArg(1, db), knn.SetArg(2, result)); err != nil {
		return err
	}
	knn.SetWork(reach.Work{
		Stage:       "Rerank",
		MACs:        590e6,
		StreamBytes: 2_460_000_000, // candidate scan per batch
		OutputBytes: 16 * 10 * 8,
	})

	// --- Deployment + host loop (host.cpp) --------------------------------
	if err := sys.Deploy(); err != nil {
		return err
	}
	batch, err := sys.Begin()
	if err != nil {
		return err
	}
	if err := batch.Enqueue(input); err != nil {
		return err
	}
	if err := batch.Execute(cnn); err != nil {
		return err
	}
	if err := batch.Broadcast(features); err != nil {
		return err
	}
	if err := batch.Execute(knn); err != nil {
		return err
	}
	if err := batch.Collect(result); err != nil {
		return err
	}
	if err := batch.Commit(); err != nil {
		return err
	}
	sys.Run()

	fmt.Fprintf(w, "batch completed in %v (simulated)\n", batch.Latency())
	fmt.Fprintln(w, "energy breakdown (J):")
	energy := sys.Energy()
	comps := make([]string, 0, len(energy))
	for comp := range energy {
		comps = append(comps, comp)
	}
	sort.Strings(comps)
	for _, comp := range comps {
		if joules := energy[comp]; joules > 0 {
			fmt.Fprintf(w, "  %-20s %.3f\n", comp, joules)
		}
	}
	fmt.Fprintf(w, "total: %.2f J\n", sys.TotalEnergy())
	return nil
}
