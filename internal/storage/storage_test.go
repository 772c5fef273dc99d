package storage

import (
	"testing"

	"repro/internal/sim"
)

func newArray(eng *sim.Engine, n int) *Array {
	return NewArray(eng, n, DefaultSSDConfig(), 16e9, 0.75, 5*sim.Microsecond)
}

func TestEffectiveHostBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	a := newArray(eng, 4)
	// 16 GB/s raw × 0.75 = 12 GB/s effective (paper §I, [6]).
	if got := a.EffectiveHostBandwidth(); got != 12e9 {
		t.Errorf("effective host bandwidth = %v, want 12e9", got)
	}
}

func TestSequentialHostReadRate(t *testing.T) {
	eng := sim.NewEngine()
	a := newArray(eng, 1)
	n := int64(120e6) // 120 MB
	done := a.HostRead(0, n, Sequential)
	// 120 MB at 12 GB/s = 10 ms (+ small latencies).
	want := sim.FromSeconds(120e6 / 12e9)
	if done < want || done > want+sim.Millisecond {
		t.Errorf("host read done = %v, want ~%v", done, want)
	}
}

func TestHostLinkSharedAcrossSSDs(t *testing.T) {
	eng := sim.NewEngine()
	a := newArray(eng, 4)
	n := int64(120e6)
	var last sim.Time
	for i := 0; i < 4; i++ {
		last = a.HostRead(i, n, Sequential)
	}
	// All four reads share one 12 GB/s link: total 480 MB → 40 ms,
	// NOT 10 ms (no aggregation across the host interface).
	want := sim.FromSeconds(480e6 / 12e9)
	if last < want {
		t.Errorf("4-SSD host read done = %v, want >= %v (host link must serialise)", last, want)
	}
	if a.HostLinkQueuedDelay() == 0 {
		t.Error("no queueing recorded on shared host link")
	}
}

func TestDeviceReadsAggregate(t *testing.T) {
	eng := sim.NewEngine()
	a := newArray(eng, 4)
	n := int64(120e6)
	var last sim.Time
	for i := 0; i < 4; i++ {
		d := a.DeviceRead(i, n, Sequential)
		if d > last {
			last = d
		}
	}
	// Each SSD streams internally at 12 GB/s independently: all four
	// finish in ~10 ms — the near-storage aggregation effect (§II-C).
	want := sim.FromSeconds(120e6/12e9) + DefaultSSDConfig().PageReadLatency
	if last > want+sim.Millisecond {
		t.Errorf("device reads done = %v, want ~%v (should parallelise)", last, want)
	}
	if a.HostLinkBytes() != 0 {
		t.Errorf("device reads crossed host link: %d bytes", a.HostLinkBytes())
	}
}

func TestRandomReadsIOPSLimited(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultSSDConfig()
	cfg.GatherGrainBytes = cfg.PageBytes // single-page gathers
	a := NewArray(eng, 1, cfg, 16e9, 0.75, 0)
	// 100k pages of 4 KiB = 409.6 MB. At 12 GB/s that is 34 ms, but at
	// 800k IOPS it takes 125 ms — IOPS must bind.
	pages := int64(100_000)
	n := pages * cfg.PageBytes
	done := a.DeviceRead(0, n, RandomPages)
	iopsTime := sim.FromSeconds(float64(pages) / cfg.RandomIOPS)
	if done < iopsTime {
		t.Errorf("random read done = %v, faster than IOPS bound %v", done, iopsTime)
	}
	bwTime := sim.FromSeconds(float64(n) / cfg.InternalBytesPerSec)
	if done < bwTime {
		t.Errorf("random read done = %v, faster than bandwidth bound %v", done, bwTime)
	}
}

func TestRandomLargePagesBandwidthLimited(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultSSDConfig()
	cfg.PageBytes = 128 << 10 // 128 KiB stripes: bandwidth binds
	a := NewArray(eng, 1, cfg, 16e9, 0.75, 0)
	n := int64(1 << 30)
	done := a.DeviceRead(0, n, RandomPages)
	bwTime := sim.FromSeconds(float64(n) / cfg.InternalBytesPerSec)
	slack := bwTime / 10
	if done > bwTime+slack+cfg.PageReadLatency {
		t.Errorf("large-stripe random read done = %v, want ~bandwidth bound %v", done, bwTime)
	}
}

func TestStatsAttribution(t *testing.T) {
	eng := sim.NewEngine()
	a := newArray(eng, 2)
	a.HostRead(0, 1000, Sequential)
	a.DeviceRead(0, 2000, Sequential)
	a.DeviceRead(1, 500, RandomPages)
	st0 := a.SSD(0).Stats()
	if st0.BytesHost != 1000 || st0.BytesDevice != 2000 || st0.BytesRead != 3000 {
		t.Errorf("ssd0 stats = %+v", st0)
	}
	st1 := a.SSD(1).Stats()
	if st1.PagesRead != 1 {
		t.Errorf("ssd1 pages = %d, want 1", st1.PagesRead)
	}
	if a.HostLinkBytes() != 1000 {
		t.Errorf("host link bytes = %d, want 1000", a.HostLinkBytes())
	}
}

func TestZeroByteRead(t *testing.T) {
	eng := sim.NewEngine()
	a := newArray(eng, 1)
	done := a.DeviceRead(0, 0, Sequential)
	if done != eng.Now() {
		t.Errorf("zero-byte read done = %v, want now", done)
	}
	if a.SSD(0).Stats().Reads != 0 {
		t.Error("zero-byte read counted")
	}
}

func TestAccessPatternString(t *testing.T) {
	if Sequential.String() != "sequential" || RandomPages.String() != "random" {
		t.Error("AccessPattern strings wrong")
	}
	if AccessPattern(99).String() == "" {
		t.Error("unknown pattern produced empty string")
	}
}
