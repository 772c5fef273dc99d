package reach

import (
	"strings"
	"testing"
)

func TestRegisterTemplateAndUse(t *testing.T) {
	s, err := NewSystem(WithInstances(1, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	spec := TemplateSpec{
		Name: "SCAN-ZCU9", Embedded: true, FreqMHz: 180, PowerW: 2.2,
		FF: 8, LUT: 10, DSP: 2, BRAM: 12,
		MACsPerCycle: 4, StreamBytesPerCycle: 96, II: 1, Depth: 12,
	}
	if err := s.RegisterTemplate(spec); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTemplate(spec); err == nil {
		t.Error("duplicate template accepted")
	}
	bad := spec
	bad.Name = "BAD"
	bad.FreqMHz = 0
	if err := s.RegisterTemplate(bad); err == nil {
		t.Error("invalid template accepted")
	}
	acc, err := s.RegisterAcc("SCAN-ZCU9", NearStor)
	if err != nil {
		t.Fatalf("registering custom template: %v", err)
	}
	// Custom embedded template must not load on the on-chip Virtex part.
	if _, err := s.RegisterAcc("SCAN-ZCU9", OnChip); err == nil {
		t.Error("embedded template accepted on on-chip fabric")
	}
	out, err := s.CreateStream("out", NearStor, CPU, Collect, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.SetArg(0, out); err != nil {
		t.Fatal(err)
	}
	acc.SetWork(Work{Stage: "Scan", StreamBytes: 1e9, MACs: 1e6})
	if err := s.Deploy(); err != nil {
		t.Fatal(err)
	}
	j, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(acc); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !j.Done() {
		t.Fatal("custom-template job incomplete")
	}
	// 1 GB at min(kernel 17.3 GB/s, SSD 12 GB/s) ≈ 83 ms.
	ms := j.Latency().Milliseconds()
	if ms < 70 || ms > 120 {
		t.Errorf("scan latency = %.1f ms, want ~85", ms)
	}
}

func TestRegisterAccAtSharing(t *testing.T) {
	// The on-chip-only baseline: three kernels time-multiplex one fabric.
	s, err := NewSystem(WithInstances(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	cnn, err := s.RegisterAccAt("CNN-VU9P", OnChip, 0)
	if err != nil {
		t.Fatal(err)
	}
	gemm, err := s.RegisterAccAt("GEMM-VU9P", OnChip, 0)
	if err != nil {
		t.Fatal(err)
	}
	knn, err := s.RegisterAccAt("KNN-VU9P", OnChip, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterAccAt("KNN-VU9P", OnChip, 3); err == nil {
		t.Error("out-of-range instance accepted")
	}
	cnn.SetWork(Work{Stage: "FE", MACs: 247.5e9, SPMResident: true, OutputBytes: 6144})
	gemm.SetWork(Work{Stage: "SL", MACs: 1.55e6, StreamBytes: 2.2e9, OutputBytes: 1024})
	knn.SetWork(Work{Stage: "RR", MACs: 614e6, StreamBytes: 2.46e9, FromStorage: true, Random: true})

	// Chain via same-level streams with explicit directions.
	feOut, _ := s.CreateStream("f", OnChip, OnChip, Pair, 6144)
	slOut, _ := s.CreateStream("s", OnChip, OnChip, Pair, 1024)
	must := func(e error) {
		t.Helper()
		if e != nil {
			t.Fatal(e)
		}
	}
	must(cnn.SetOutput(0, feOut))
	must(gemm.SetInput(0, feOut))
	must(gemm.SetOutput(1, slOut))
	must(knn.SetInput(0, slOut))

	must(s.Deploy())
	j, err := s.Begin()
	must(err)
	must(j.Execute(cnn))
	must(j.Execute(gemm))
	must(j.Execute(knn))
	must(j.Commit())
	s.Run()
	if !j.Done() {
		t.Fatal("shared-fabric job incomplete")
	}
	// Stages serialise on the single fabric: FE ~111 + SL ~100 + RR ~385.
	ms := j.Latency().Milliseconds()
	if ms < 500 || ms > 700 {
		t.Errorf("on-chip-only latency = %.1f ms, want ~595", ms)
	}
}

func TestFromStorageWork(t *testing.T) {
	// Identical work with and without FromStorage: the storage-resident
	// variant must take longer (host IO) and touch the SSDs.
	run := func(fromStorage bool) (float64, map[string]float64) {
		s, err := NewSystem(WithInstances(1, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		acc, err := s.RegisterAcc("KNN-VU9P", OnChip)
		if err != nil {
			t.Fatal(err)
		}
		acc.SetWork(Work{Stage: "RR", MACs: 1e6, StreamBytes: 1e9, FromStorage: fromStorage})
		if err := s.Deploy(); err != nil {
			t.Fatal(err)
		}
		j, _ := s.Begin()
		if err := j.Execute(acc); err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
		s.Run()
		return j.Latency().Seconds(), s.Energy()
	}
	dramSec, dramE := run(false)
	ssdSec, ssdE := run(true)
	if ssdSec <= dramSec {
		t.Errorf("storage-resident run (%v s) not slower than DRAM-resident (%v s)", ssdSec, dramSec)
	}
	if ssdE["SSD"] <= 0 {
		t.Error("FromStorage charged no SSD energy")
	}
	if dramE["SSD"] != 0 {
		t.Errorf("DRAM-resident run charged SSD energy %v", dramE["SSD"])
	}
}

func TestEnergyMapKeys(t *testing.T) {
	s, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	e := s.Energy()
	for _, k := range []string{"ACC", "Cache", "DRAM", "SSD", "MC and Interconnect", "PCIe"} {
		if _, ok := e[k]; !ok {
			t.Errorf("energy map missing %q", k)
		}
	}
	if s.TotalEnergy() != 0 {
		t.Error("fresh system has nonzero energy")
	}
	var names []string
	for k := range e {
		names = append(names, k)
	}
	if len(names) != 6 {
		t.Errorf("energy components = %v", strings.Join(names, ","))
	}
}

func TestJobPriority(t *testing.T) {
	// Two jobs contend for one near-storage instance; the second-submitted
	// job carries higher priority and must be dispatched first once both
	// are queued.
	s, err := NewSystem(WithInstances(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := s.RegisterAcc("KNN-ZCU9", NearStor)
	if err != nil {
		t.Fatal(err)
	}
	acc.SetWork(Work{Stage: "Scan", StreamBytes: 6e9}) // ~1s per job
	if err := s.Deploy(); err != nil {
		t.Fatal(err)
	}
	mk := func(prio int) *Job {
		j, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.SetPriority(prio); err != nil {
			t.Fatal(err)
		}
		if err := j.Execute(acc); err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
		return j
	}
	// Three jobs: the first occupies the device; among the two queued,
	// the high-priority one must finish before the earlier-submitted
	// low-priority one.
	first := mk(0)
	low := mk(0)
	high := mk(5)
	s.Run()
	if !first.Done() || !low.Done() || !high.Done() {
		t.Fatal("jobs incomplete")
	}
	if high.FinishedAt() >= low.FinishedAt() {
		t.Errorf("high-priority job finished at %v, after low-priority at %v",
			high.FinishedAt(), low.FinishedAt())
	}
	// SetPriority after Commit is rejected.
	if err := high.SetPriority(1); err == nil {
		t.Error("SetPriority after Commit accepted")
	}
}
