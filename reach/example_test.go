package reach_test

import (
	"fmt"
	"log"

	"repro/reach"
)

// Example builds the smallest possible ReACH pipeline — one on-chip CNN
// feeding one near-storage KNN — and runs a single batch through the
// simulated hierarchy.
func Example() {
	sys, err := reach.NewSystem(reach.WithInstances(1, 0, 1))
	if err != nil {
		log.Fatal(err)
	}
	db, _ := sys.CreateFixedBuffer("db", reach.NearStor, 96e9)
	feat, _ := sys.CreateStream("Features", reach.OnChip, reach.NearStor, reach.BroadCast, 6144)

	cnn, _ := sys.RegisterAcc("VGG16-VU9P", reach.OnChip)
	_ = cnn.SetArg(0, feat)
	cnn.SetWork(reach.Work{Stage: "FE", MACs: 16 * 15.47e9, SPMResident: true, OutputBytes: 6144})

	knn, _ := sys.RegisterAcc("KNN-ZCU9", reach.NearStor)
	_ = knn.SetArg(0, feat)
	_ = knn.SetArg(1, db)
	knn.SetWork(reach.Work{Stage: "RR", MACs: 590e6, StreamBytes: 2.4e9})

	if err := sys.Deploy(); err != nil {
		log.Fatal(err)
	}
	batch, _ := sys.Begin()
	_ = batch.Execute(cnn)
	_ = batch.Execute(knn)
	_ = batch.Commit()
	sys.Run()

	fmt.Println("done:", batch.Done())
	// Output:
	// done: true
}

// ExampleSystem_RegisterTemplate publishes a custom accelerator template —
// the §III-A authoring flow — and deploys it near storage.
func ExampleSystem_RegisterTemplate() {
	sys, err := reach.NewSystem(reach.WithInstances(0, 0, 1))
	if err != nil {
		log.Fatal(err)
	}
	err = sys.RegisterTemplate(reach.TemplateSpec{
		Name: "FILTER-ZCU9", Embedded: true,
		FreqMHz: 200, PowerW: 2,
		FF: 6, LUT: 8, DSP: 1, BRAM: 10,
		MACsPerCycle: 2, StreamBytesPerCycle: 64, II: 1, Depth: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	acc, err := sys.RegisterAcc("FILTER-ZCU9", reach.NearStor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(acc.Name)
	// Output:
	// FILTER-ZCU9@NearStor[0]
}

// ExampleWithCrossJobPipelining shows the §II-D ablation knob: the GAM can
// be told not to overlap consecutive jobs.
func ExampleWithCrossJobPipelining() {
	sys, err := reach.NewSystem(reach.WithCrossJobPipelining(false))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys.TotalEnergy())
	// Output:
	// 0
}
