package accel

import (
	"testing"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/fpga"
	"repro/internal/sim"
	"repro/internal/storage"
)

func newPlatform(t *testing.T, cfg config.SystemConfig) *Platform {
	t.Helper()
	eng := sim.NewEngine()
	meter := energy.NewMeter(energy.DefaultCosts())
	p, err := NewPlatform(eng, cfg, meter)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newAcc attaches instance i of level l, failing the test on error.
func newAcc(t *testing.T, p *Platform, l Level, i int) *Accelerator {
	t.Helper()
	a, err := p.NewAccelerator(l, i)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func tpl(t *testing.T, name string) *fpga.Template {
	t.Helper()
	k, err := fpga.NewRegistry().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestLevelStrings(t *testing.T) {
	for l, want := range map[Level]string{OnChip: "OnChip", NearMemory: "NearMem", NearStorage: "NearStor", CPU: "CPU"} {
		if l.String() != want {
			t.Errorf("%d = %q, want %q", int(l), l.String(), want)
		}
	}
	if Level(9).String() == "" || Source(9).String() == "" {
		t.Error("unknown enum produced empty string")
	}
}

func TestOnChipComputeBoundSPM(t *testing.T) {
	p := newPlatform(t, config.Default())
	a := newAcc(t, p, OnChip, 0)
	k := tpl(t, "CNN-VU9P")
	// One VGG16 batch from SRAM-resident parameters: 247.5 GMAC at
	// 8192 MACs/cycle × 273 MHz ≈ 110.7 ms.
	done, err := a.Execute(&Task{
		Name: "fe", Stage: "FE", Kernel: k,
		MACs: 247.5e9, Source: SourceSPM,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := done.Milliseconds()
	if ms < 100 || ms > 122 {
		t.Errorf("on-chip CNN batch = %.1f ms, want ~110", ms)
	}
	if p.Meter.Component(energy.ACC) <= 0 {
		t.Error("no accelerator energy charged")
	}
	if p.Meter.Kind(energy.Movement) != 0 {
		t.Error("SPM-resident task charged movement energy")
	}
}

func TestOnChipDRAMStreamBandwidthBound(t *testing.T) {
	p := newPlatform(t, config.Default())
	a := newAcc(t, p, OnChip, 0)
	k := tpl(t, "GEMM-VU9P")
	// The shortlist working set: 2.2 GB streamed from host DRAM with tiny
	// compute. Host channels: 2 × 19.2 GB/s × 0.82 × 0.70 ≈ 22 GB/s →
	// ~100 ms (the shared-cache contention penalty of §IV-B).
	bytes := int64(2.2e9)
	done, err := a.Execute(&Task{
		Name: "sl", Stage: "SL", Kernel: k,
		MACs: 1.55e6, Bytes: bytes, Source: SourceHostDRAM,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := done.Milliseconds()
	if ms < 85 || ms > 115 {
		t.Errorf("on-chip shortlist = %.1f ms, want ~100", ms)
	}
	// Energy must include DRAM, MC and cache movement.
	for _, c := range []energy.Component{energy.DRAM, energy.MCInterconnect, energy.Cache} {
		if p.Meter.Component(c) <= 0 {
			t.Errorf("no %v energy charged", c)
		}
	}
}

func TestOnChipSSDStagedRead(t *testing.T) {
	p := newPlatform(t, config.Default())
	a := newAcc(t, p, OnChip, 0)
	k := tpl(t, "KNN-VU9P")
	// The rerank scan: 2.46 GB gathered from SSD via the host interface
	// (per-stripe NVMe commands: 12 GB/s × 0.75 gather efficiency → 9 GB/s
	// ≈ 273 ms) followed by the serialized read of the staged buffer
	// through the polluted cache path (~112 ms) ≈ 385 ms.
	bytes := int64(2.46e9)
	done, err := a.Execute(&Task{
		Name: "rr", Stage: "RR", Kernel: k,
		MACs: 614e6, Bytes: bytes, Source: SourceSSD, Pattern: storage.RandomPages,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := done.Milliseconds()
	if ms < 340 || ms > 440 {
		t.Errorf("on-chip rerank = %.1f ms, want ~385", ms)
	}
	if p.Meter.Component(energy.SSD) <= 0 || p.Meter.Component(energy.PCIe) <= 0 {
		t.Error("SSD path energy missing")
	}
	// Staging doubles DRAM traffic relative to cache traffic.
	dram := p.Meter.Component(energy.DRAM)
	cacheE := p.Meter.Component(energy.Cache)
	costs := p.Meter.Costs()
	wantRatio := 2 * costs.DRAMPerByte / costs.CachePerByte
	gotRatio := dram / cacheE
	if gotRatio < wantRatio*0.99 || gotRatio > wantRatio*1.01 {
		t.Errorf("DRAM/cache energy ratio = %.2f, want %.2f (2x staging)", gotRatio, wantRatio)
	}
}

func TestOnChipRejectsBusyAndBadSource(t *testing.T) {
	p := newPlatform(t, config.Default())
	a := newAcc(t, p, OnChip, 0)
	k := tpl(t, "CNN-VU9P")
	if _, err := a.Execute(&Task{Name: "x", Stage: "s", Kernel: k, MACs: 1e9, Source: SourceSPM}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute(&Task{Name: "y", Stage: "s", Kernel: k, MACs: 1, Source: SourceSPM}); err == nil {
		t.Error("busy accelerator accepted a task")
	}
	p2 := newPlatform(t, config.Default())
	a2 := newAcc(t, p2, OnChip, 0)
	if _, err := a2.Execute(&Task{Name: "z", Stage: "s", Kernel: k, Bytes: 1, Source: SourceLocalDIMM}); err == nil {
		t.Error("on-chip accepted a local-DIMM source")
	}
	if _, err := a2.Execute(&Task{Name: "w", Stage: "s", Kernel: nil}); err == nil {
		t.Error("nil kernel accepted")
	}
}

func TestNearMemLocalScaling(t *testing.T) {
	// 4 AIM modules each streaming their local quarter of 2.2 GB at
	// 18 GB/s finish together in ~31 ms — the Fig. 10 aggregation effect.
	cfg := config.Default().WithInstances(0, 4, 0)
	p := newPlatform(t, cfg)
	k := tpl(t, "GEMM-ZCU9")
	var last sim.Time
	for i := 0; i < 4; i++ {
		a := newAcc(t, p, NearMemory, i)
		done, err := a.Execute(&Task{
			Name: "sl", Stage: "SL", Kernel: k,
			MACs: 0.4e6, Bytes: int64(2.2e9) / 4, Source: SourceLocalDIMM,
		})
		if err != nil {
			t.Fatal(err)
		}
		if done > last {
			last = done
		}
	}
	ms := last.Milliseconds()
	if ms < 28 || ms > 40 {
		t.Errorf("4-way near-mem shortlist = %.1f ms, want ~32", ms)
	}
}

func TestNearMemSingleInstanceSlowerThanOnChip(t *testing.T) {
	// One AIM module streaming all 2.2 GB at 18 GB/s: ~122 ms, slower
	// than on-chip's ~100 ms ("better performance when there is 2 or more
	// instances", §VI-B).
	cfg := config.Default()
	p := newPlatform(t, cfg)
	a := newAcc(t, p, NearMemory, 0)
	done, err := a.Execute(&Task{
		Name: "sl", Stage: "SL", Kernel: tpl(t, "GEMM-ZCU9"),
		MACs: 1.55e6, Bytes: int64(2.2e9), Source: SourceLocalDIMM,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := done.Milliseconds()
	if ms < 115 || ms > 135 {
		t.Errorf("1-way near-mem shortlist = %.1f ms, want ~122", ms)
	}
}

func TestNearMemRemoteDataCrossesAIMBus(t *testing.T) {
	cfg := config.Default()
	p := newPlatform(t, cfg)
	a := newAcc(t, p, NearMemory, 0)
	bytes := int64(1e9)
	done, err := a.Execute(&Task{
		Name: "sl", Stage: "SL", Kernel: tpl(t, "GEMM-ZCU9"),
		Bytes: bytes, Source: SourceLocalDIMM, RemoteFraction: 0.75,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 750 MB over the 12.8 GB/s AIMbus ≈ 58.6 ms dominates.
	ms := done.Milliseconds()
	if ms < 55 || ms > 70 {
		t.Errorf("remote-heavy task = %.1f ms, want ~59", ms)
	}
	if got := p.AIMBus.ResourceStats().Bytes; got != uint64(bytes)*3/4 {
		t.Errorf("AIMbus carried %d bytes, want %d", got, bytes*3/4)
	}
}

func TestNearMemSSDPlateau(t *testing.T) {
	// Four AIM modules pulling the rerank scan from SSD share one 12 GB/s
	// host PCIe link: aggregate throughput must NOT scale 4× (Fig. 11
	// plateau).
	run := func(n int) sim.Time {
		cfg := config.Default().WithInstances(0, n, 0)
		p := newPlatform(t, cfg)
		total := int64(2.4e9)
		per := total / int64(n)
		var last sim.Time
		for i := 0; i < n; i++ {
			a := newAcc(t, p, NearMemory, i)
			done, err := a.Execute(&Task{
				Name: "rr", Stage: "RR", Kernel: tpl(t, "KNN-ZCU9"),
				Bytes: per, Source: SourceSSD, Pattern: storage.Sequential,
			})
			if err != nil {
				t.Fatal(err)
			}
			if done > last {
				last = done
			}
		}
		return last
	}
	t1, t4, t8 := run(1), run(4), run(8)
	if t4 >= t1 {
		t.Errorf("4 instances (%v) not faster than 1 (%v)", t4, t1)
	}
	// Host IO bound: 2.4 GB / 12 GB/s = 200 ms floor.
	floor := sim.FromSeconds(2.4e9 / 12e9)
	if t4 < floor {
		t.Errorf("4 instances (%v) beat the host IO floor (%v)", t4, floor)
	}
	// Plateau: going 4 → 8 buys almost nothing.
	if improvement := float64(t4-t8) / float64(t4); improvement > 0.15 {
		t.Errorf("8 instances improved %.0f%% over 4; expected a plateau", improvement*100)
	}
}

func TestNearStorScalesLinearly(t *testing.T) {
	run := func(n int) sim.Time {
		cfg := config.Default().WithInstances(0, 0, n)
		p := newPlatform(t, cfg)
		total := int64(2.4e9)
		per := total / int64(n)
		var last sim.Time
		for i := 0; i < n; i++ {
			a := newAcc(t, p, NearStorage, i)
			done, err := a.Execute(&Task{
				Name: "rr", Stage: "RR", Kernel: tpl(t, "KNN-ZCU9"),
				Bytes: per, Source: SourceSSD, Pattern: storage.Sequential,
			})
			if err != nil {
				t.Fatal(err)
			}
			if done > last {
				last = done
			}
		}
		return last
	}
	t1, t4, t16 := run(1), run(4), run(16)
	// Near-linear: each instance owns its SSD's internal bandwidth.
	if ratio := float64(t1) / float64(t4); ratio < 3.5 || ratio > 4.5 {
		t.Errorf("1→4 speedup = %.2f, want ~4 (linear)", ratio)
	}
	if ratio := float64(t1) / float64(t16); ratio < 12 {
		t.Errorf("1→16 speedup = %.2f, want >= 12", ratio)
	}
}

func TestNearStorEnergyBeatsOnChipForRerank(t *testing.T) {
	// The §VI-B claim: rerank saves up to ~60 % of its energy moving from
	// on-chip to near-storage acceleration.
	bytes := int64(2.46e9)
	macs := 614e6

	pOn := newPlatform(t, config.Default())
	aOn := newAcc(t, pOn, OnChip, 0)
	if _, err := aOn.Execute(&Task{Name: "rr", Stage: "RR", Kernel: tpl(t, "KNN-VU9P"),
		MACs: macs, Bytes: bytes, Source: SourceSSD}); err != nil {
		t.Fatal(err)
	}
	onE := pOn.Meter.Total()

	pNS := newPlatform(t, config.Default().WithInstances(0, 0, 4))
	var lastNS sim.Time
	for i := 0; i < 4; i++ {
		a := newAcc(t, pNS, NearStorage, i)
		done, err := a.Execute(&Task{Name: "rr", Stage: "RR", Kernel: tpl(t, "KNN-ZCU9"),
			MACs: macs / 4, Bytes: bytes / 4, Source: SourceSSD})
		if err != nil {
			t.Fatal(err)
		}
		if done > lastNS {
			lastNS = done
		}
	}
	nsE := pNS.Meter.Total()
	saving := 1 - nsE/onE
	if saving < 0.35 || saving > 0.75 {
		t.Errorf("near-storage rerank energy saving = %.0f%%, want 35-75%% (paper: up to 60%%)", saving*100)
	}
}

func TestNearStorBufferHitVsMiss(t *testing.T) {
	cfg := config.Default()
	// A page-granularity parameter gather: all-hit is served by the DRAM
	// buffer; all-miss falls through to flash and hits the IOPS limit.
	cfg.Storage.GatherGrainBytes = cfg.Storage.PageBytes
	task := func() *Task {
		return &Task{Name: "p", Stage: "FE", Kernel: tpl(t, "CNN-ZCU9"),
			Bytes: 500e6, Source: SourceDeviceDRAM, Pattern: storage.RandomPages}
	}
	pHit := newPlatform(t, cfg)
	aHit := newAcc(t, pHit, NearStorage, 0)
	aHit.BufferHitRatio = 1.0
	dHit, err := aHit.Execute(task())
	if err != nil {
		t.Fatal(err)
	}
	pMiss := newPlatform(t, cfg)
	aMiss := newAcc(t, pMiss, NearStorage, 0)
	aMiss.BufferHitRatio = 0.0
	dMiss, err := aMiss.Execute(task())
	if err != nil {
		t.Fatal(err)
	}
	if dMiss <= dHit {
		t.Errorf("all-miss (%v) not slower than all-hit (%v)", dMiss, dHit)
	}
	if pMiss.Meter.Component(energy.SSD) <= pHit.Meter.Component(energy.SSD) {
		t.Error("buffer misses did not increase SSD energy")
	}
}

func TestNearStorUsesNearStoragePower(t *testing.T) {
	// Table III: Zynq kernels have a higher near-storage power (DRAM
	// buffer + interface).
	cfg := config.Default()
	pNM := newPlatform(t, cfg)
	nm := newAcc(t, pNM, NearMemory, 0)
	if _, err := nm.Execute(&Task{Name: "a", Stage: "s", Kernel: tpl(t, "KNN-ZCU9"),
		Bytes: 1e9, Source: SourceLocalDIMM}); err != nil {
		t.Fatal(err)
	}
	pNS := newPlatform(t, cfg)
	ns := newAcc(t, pNS, NearStorage, 0)
	if _, err := ns.Execute(&Task{Name: "a", Stage: "s", Kernel: tpl(t, "KNN-ZCU9"),
		Bytes: 1e9, Source: SourceSSD}); err != nil {
		t.Fatal(err)
	}
	nmACC := pNM.Meter.Component(energy.ACC)
	nsACC := pNS.Meter.Component(energy.ACC)
	// NS runs longer (6 GB/s kernel consumption vs 18 GB/s DIMM feed is
	// not the binding factor here — both are kernel-bound at 6 GB/s) and
	// at 2.4 W vs 1.8 W.
	if nsACC <= nmACC {
		t.Errorf("NS ACC energy (%v) not above NM (%v) despite higher Table III power", nsACC, nmACC)
	}
}

func TestPlatformInstanceErrors(t *testing.T) {
	p := newPlatform(t, config.Default())
	for _, c := range []struct {
		l Level
		i int
	}{
		{CPU, 0}, {Level(9), 0}, {Level(-1), 0},
		{NearMemory, -1}, {NearMemory, len(p.NearDIMMs)}, {NearMemory, 99},
		{NearStorage, -1}, {NearStorage, p.Storage.Len()},
	} {
		if a, err := p.NewAccelerator(c.l, c.i); err == nil {
			t.Errorf("NewAccelerator(%v, %d) accepted as %s", c.l, c.i, a.Name())
		}
	}
	// Rejected instances take no name: each level numbers from 0.
	for l, want := range map[Level][]string{
		OnChip: {"onchip0", "onchip1"}, NearMemory: {"nm0", "nm1"}, NearStorage: {"ns0", "ns1"},
	} {
		for i, name := range want {
			if got := newAcc(t, p, l, i).Name(); got != name {
				t.Errorf("instance %d at %v named %q, want %q", i, l, got, name)
			}
		}
	}
	bad := config.Default()
	bad.Memory.Controllers = 0
	if _, err := NewPlatform(sim.NewEngine(), bad, energy.NewMeter(energy.DefaultCosts())); err == nil {
		t.Error("invalid config accepted by NewPlatform")
	}
}

func TestEstimateIgnoresContention(t *testing.T) {
	p := newPlatform(t, config.Default())
	a := newAcc(t, p, OnChip, 0)
	k := tpl(t, "KNN-VU9P")
	task := &Task{Name: "rr", Stage: "RR", Kernel: k, MACs: 614e6, Bytes: int64(2.46e9), Source: SourceSSD}
	est := a.Estimate(task)
	done, err := a.Execute(task)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate (kernel-only) must undershoot the contended reality —
	// that gap is what GAM's status polling absorbs.
	if est >= done {
		t.Errorf("estimate %v not below actual %v", est, done)
	}
}
