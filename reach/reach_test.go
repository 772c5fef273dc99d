package reach

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// buildCBIR configures the paper's Listing 2 meta-accelerator: VGG16 on
// chip, GEMM shortlist on every near-memory instance, KNN rerank on every
// near-storage instance, with the Input/Features/Result streams.
func buildCBIR(t *testing.T, s *System, nm, ns int) (input, features, shortlists, result *Stream, cnn *ACC, sls, knns []*ACC) {
	t.Helper()
	m := workload.DefaultModel()

	var err error
	check := func(e error) {
		t.Helper()
		if e != nil {
			t.Fatal(e)
		}
	}

	// Fixed buffers: model parameters on chip, centroid shards per DIMM,
	// database shards per SSD (Listing 2 lines 4-6).
	_, err = s.CreateFixedBuffer("vgg16_param", OnChip, m.CNN.CompressedParamBytes())
	check(err)
	for i := 0; i < nm; i++ {
		_, err = s.CreateFixedBufferAt("centroids", NearMem, m.CentroidStoreBytes()/int64(nm), i)
		check(err)
	}
	dbShards := make([]*Buffer, ns)
	for i := 0; i < ns; i++ {
		dbShards[i], err = s.CreateFixedBufferAt("feature_db", NearStor, m.FeatureStoreBytes()/int64(ns), i)
		check(err)
	}

	// Streams (Listing 2 lines 8-13).
	input, err = s.CreateStream("Input", CPU, OnChip, Pair, m.BatchImageBytes())
	check(err)
	features, err = s.CreateStream("Features", OnChip, NearMem, BroadCast, m.BatchFeatureBytes())
	check(err)
	shortlists, err = s.CreateStream("Shortlists", NearMem, NearStor, BroadCast, m.ShortlistResultBytesPerBatch())
	check(err)
	result, err = s.CreateStream("Result", NearStor, CPU, Collect, m.ResultBytesPerBatch())
	check(err)

	// Accelerators (Listing 2 lines 15-26).
	cnn, err = s.RegisterAcc("VGG16-VU9P", OnChip)
	check(err)
	check(cnn.SetArg(0, input))
	check(cnn.SetArg(2, features))
	cnn.SetWork(Work{
		Stage: "FeatureExtraction", MACs: m.FeatureMACsPerBatch(),
		SPMResident: true, OutputBytes: m.BatchFeatureBytes(),
	})

	for i := 0; i < nm; i++ {
		sl, err := s.RegisterAcc("GEMM-ZCU9", NearMem)
		check(err)
		check(sl.SetArg(0, features))
		check(sl.SetArg(2, shortlists))
		sl.SetWork(Work{
			Stage:       "ShortlistRetrieval",
			MACs:        m.ShortlistMACsPerBatch() / float64(nm),
			StreamBytes: m.ShortlistScanBytesPerBatch() / int64(nm),
			OutputBytes: m.ShortlistResultBytesPerBatch() / int64(nm),
		})
		sls = append(sls, sl)
	}
	for i := 0; i < ns; i++ {
		knn, err := s.RegisterAcc("KNN-ZCU9", NearStor)
		check(err)
		check(knn.SetArg(0, shortlists))
		check(knn.SetArg(1, dbShards[i]))
		check(knn.SetArg(2, result))
		knn.SetWork(Work{
			Stage:       "Rerank",
			MACs:        m.RerankMACsPerBatch() / float64(ns),
			StreamBytes: m.RerankScanBytesPerBatch() / int64(ns),
			OutputBytes: m.ResultBytesPerBatch() / int64(ns),
		})
		knns = append(knns, knn)
	}
	return input, features, shortlists, result, cnn, sls, knns
}

// runBatches runs the Listing 3 host loop for n batches and returns the
// jobs.
func runBatches(t *testing.T, s *System, n int, input, features, result *Stream, cnn *ACC, sls, knns []*ACC) []*Job {
	t.Helper()
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		b, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must := func(e error) {
			t.Helper()
			if e != nil {
				t.Fatal(e)
			}
		}
		must(b.Enqueue(input))
		must(b.Execute(cnn))
		must(b.Broadcast(features))
		for _, sl := range sls {
			must(b.Execute(sl))
		}
		for _, knn := range knns {
			must(b.Execute(knn))
		}
		must(b.Collect(result))
		must(b.Commit())
		jobs = append(jobs, b)
	}
	s.Run()
	return jobs
}

func TestListing2ConfigurationBuilds(t *testing.T) {
	s, err := NewSystem() // Table II defaults: 1/4/4
	if err != nil {
		t.Fatal(err)
	}
	buildCBIR(t, s, 4, 4)
	if err := s.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(); err == nil {
		t.Error("double Deploy accepted")
	}
}

func TestEndToEndBatchCompletes(t *testing.T) {
	s, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	input, features, _, result, cnn, sls, knns := buildCBIR(t, s, 4, 4)
	if err := s.Deploy(); err != nil {
		t.Fatal(err)
	}
	jobs := runBatches(t, s, 1, input, features, result, cnn, sls, knns)
	if !jobs[0].Done() {
		t.Fatal("batch did not complete")
	}
	ms := jobs[0].Latency().Milliseconds()
	// FE ~111ms + SL ~31ms + RR ~103ms + transfers/polling ≈ 250ms.
	if ms < 200 || ms > 330 {
		t.Errorf("batch latency = %.1f ms, want ~250", ms)
	}
	// Energy breakdown covers the expected components.
	e := s.Energy()
	for _, comp := range []string{"ACC", "DRAM", "SSD"} {
		if e[comp] <= 0 {
			t.Errorf("no %s energy", comp)
		}
	}
	// The central resource registry exposes the shared hardware the run
	// contended on, with traffic accounted at the base layer.
	reg := s.Resources()
	for _, name := range []string{"mem.aimbus", "noc.cpu.out", "ssd0.flash"} {
		if _, ok := reg.Lookup(name); !ok {
			t.Errorf("registry missing %s (have %v)", name, reg.Names())
		}
	}
	for _, name := range []string{"mem.host", "ssd.host_link"} {
		res, ok := reg.Lookup(name)
		if !ok {
			t.Errorf("registry missing %s (have %v)", name, reg.Names())
			continue
		}
		if res.ResourceStats().Bytes == 0 {
			t.Errorf("%s carried no traffic", name)
		}
	}
}

func TestPipelinedThroughputApproachesBottleneckStage(t *testing.T) {
	s, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	input, features, _, result, cnn, sls, knns := buildCBIR(t, s, 4, 4)
	if err := s.Deploy(); err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	const n = 8
	jobs := runBatches(t, s, n, input, features, result, cnn, sls, knns)
	last := jobs[n-1].FinishedAt()
	period := float64(last-start) / float64(n)
	// The FE stage (~111 ms on chip) bounds steady state; allow overheads.
	if period > float64(160*sim.Millisecond) {
		t.Errorf("steady-state period = %.1f ms/batch, want near ~115-130", period/float64(sim.Millisecond))
	}
	for _, j := range jobs {
		if !j.Done() {
			t.Fatal("a batch did not finish")
		}
	}
}

func TestConfigurationErrors(t *testing.T) {
	s, err := NewSystem(WithInstances(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterAcc("nonsense", OnChip); err == nil {
		t.Error("unknown template accepted")
	}
	if _, err := s.RegisterAcc("CNN-ZCU9", OnChip); err == nil {
		t.Error("ZCU9 bitstream accepted on the on-chip VU9P fabric")
	}
	if _, err := s.RegisterAcc("VGG16-VU9P", OnChip); err != nil {
		t.Errorf("valid registration failed: %v", err)
	}
	if _, err := s.RegisterAcc("VGG16-VU9P", OnChip); err == nil {
		t.Error("second registration on a 1-instance level accepted")
	}
	if _, err := s.CreateFixedBuffer("b", NearMem, 0); err == nil {
		t.Error("zero-size buffer accepted")
	}
	if _, err := s.CreateFixedBufferAt("b", NearStor, 10, 5); err == nil {
		t.Error("out-of-range pin accepted")
	}
	// Same-level streams are allowed (buffer handovers / sibling-instance
	// hops) but must be bound with explicit directions.
	same, err := s.CreateStream("same", NearStor, NearStor, Pair, 10)
	if err != nil {
		t.Errorf("same-level stream rejected: %v", err)
	}
	knn, err := s.RegisterAcc("KNN-ZCU9", NearStor)
	if err != nil {
		t.Fatal(err)
	}
	if err := knn.SetArg(0, same); err == nil {
		t.Error("ambiguous SetArg on a same-level stream accepted")
	}
	if err := knn.SetInput(0, same); err != nil {
		t.Errorf("SetInput on same-level stream rejected: %v", err)
	}
	if _, err := s.CreateStream("s", CPU, OnChip, Pair, 0); err == nil {
		t.Error("zero-size stream accepted")
	}
	if _, err := s.Begin(); err == nil {
		t.Error("Begin before Deploy accepted")
	}
}

func TestSetArgValidation(t *testing.T) {
	s, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	acc, err := s.RegisterAcc("GEMM-ZCU9", NearMem)
	if err != nil {
		t.Fatal(err)
	}
	bufWrongLevel, _ := s.CreateFixedBuffer("db", NearStor, 100)
	if err := acc.SetArg(0, bufWrongLevel); err == nil {
		t.Error("buffer at wrong level accepted")
	}
	stWrong, _ := s.CreateStream("x", CPU, OnChip, Pair, 10)
	if err := acc.SetArg(0, stWrong); err == nil {
		t.Error("stream not touching the level accepted")
	}
	stIn, _ := s.CreateStream("in", OnChip, NearMem, BroadCast, 10)
	if err := acc.SetArg(0, stIn); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
	if err := acc.SetArg(0, stIn); err == nil {
		t.Error("double binding of a slot accepted")
	}
	if err := acc.SetArg(1, nil); err == nil {
		t.Error("nil arg accepted")
	}
}

func TestStreamTypeValidationInJob(t *testing.T) {
	s, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(); err != nil {
		t.Fatal(err)
	}
	b, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pair, _ := s.CreateStream("p", CPU, OnChip, Pair, 10)
	if err := b.Broadcast(pair); err == nil {
		t.Error("Broadcast on a Pair stream accepted")
	}
	if err := b.Collect(pair); err == nil {
		t.Error("Collect on a Pair stream accepted")
	}
	notHost, _ := s.CreateStream("nh", OnChip, NearMem, Pair, 10)
	if err := b.Enqueue(notHost); err == nil {
		t.Error("Enqueue on a non-CPU-sourced stream accepted")
	}
	if err := b.Commit(); err == nil {
		t.Error("empty job committed")
	}
}

func TestLevelAndStreamTypeStrings(t *testing.T) {
	if OnChip.String() != "OnChip" || NearMem.String() != "NearMem" ||
		NearStor.String() != "NearStor" || CPU.String() != "CPU" {
		t.Error("level strings wrong")
	}
	if BroadCast.String() != "BroadCast" || Collect.String() != "Collect" || Pair.String() != "Pair" {
		t.Error("stream type strings wrong")
	}
	if StreamType(9).String() == "" {
		t.Error("unknown stream type empty")
	}
}

// A job's dependencies come from the producers Execute has already seen,
// so a stream's consumer executed before its producer would run without
// waiting for it. Execute rejects that order; the producer-first order of
// the same program keeps its latency.
func TestExecuteRejectsProducerAfterConsumer(t *testing.T) {
	run := func(producerFirst bool) (sim.Time, error) {
		s, err := NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		in, _ := s.CreateStream("in", CPU, OnChip, Pair, 64<<20)
		mid, _ := s.CreateStream("mid", OnChip, NearMem, Pair, 64<<20)
		prod, err := s.RegisterAcc("GEMM-VU9P", OnChip)
		if err != nil {
			t.Fatal(err)
		}
		cons, err := s.RegisterAcc("GEMM-ZCU9", NearMem)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []error{prod.SetArg(0, in), prod.SetArg(1, mid), cons.SetArg(0, mid), s.Deploy()} {
			if e != nil {
				t.Fatal(e)
			}
		}
		prod.SetWork(Work{Stage: "p", MACs: 1e9, StreamBytes: 64 << 20})
		cons.SetWork(Work{Stage: "c", MACs: 1e9, StreamBytes: 64 << 20})
		j, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Enqueue(in); err != nil {
			t.Fatal(err)
		}
		order := []*ACC{cons, prod}
		if producerFirst {
			order = []*ACC{prod, cons}
		}
		for _, a := range order {
			if err := j.Execute(a); err != nil {
				return 0, err
			}
		}
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
		s.Run()
		return j.Latency(), nil
	}
	if lat, err := run(true); err != nil || lat != 22125524397*sim.Picosecond {
		t.Errorf("producer first: latency %v, error %v; want 22.1255ms", lat, err)
	}
	if lat, err := run(false); err == nil {
		t.Errorf("consumer first accepted, latency %v", lat)
	}
}
