package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDDR4TimingPeakBandwidth(t *testing.T) {
	tm := DDR42400()
	// DDR4-2400: 2400 MT/s × 8 B = 19.2 GB/s.
	got := tm.PeakBandwidth()
	if got < 19.0e9 || got > 19.3e9 {
		t.Errorf("peak bandwidth = %v B/s, want ~19.2 GB/s", got)
	}
	// Burst of 8 transfers = 4 bus clocks ≈ 3.332 ns.
	if bt := tm.BurstTime(); bt != 4*833*sim.Picosecond {
		t.Errorf("burst time = %v, want 3332ps", bt)
	}
}

func TestDIMMRowHitVsMiss(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDIMM(eng, "d0", DDR42400(), DefaultGeometry())

	// First access to a closed bank: tRCD + CL + burst.
	t1 := d.Access(0, false)
	wantFirst := d.timing.TRCD + d.timing.CL + d.timing.BurstTime()
	if t1 != wantFirst {
		t.Errorf("closed-row access done at %v, want %v", t1, wantFirst)
	}

	// Same row, same bank (address + 16 banks × 64B stride): row hit,
	// only CL + burst beyond bank-ready.
	eng.RunUntil(t1)
	stride := int64(DefaultGeometry().Banks) * 64
	t2 := d.Access(stride, false)
	if t2 <= t1 {
		t.Fatalf("second access completed at %v, not after first %v", t2, t1)
	}
	hitLatency := t2 - t1
	missLatency := t1
	if hitLatency >= missLatency {
		t.Errorf("row hit latency %v not faster than miss %v", hitLatency, missLatency)
	}
	if d.RowHitRate() != 0.5 {
		t.Errorf("row hit rate = %v, want 0.5", d.RowHitRate())
	}
}

func TestDIMMRowConflictSlowest(t *testing.T) {
	eng := sim.NewEngine()
	g := DefaultGeometry()
	d := NewDIMM(eng, "d0", DDR42400(), g)

	// Open row 0 in bank 0.
	t1 := d.Access(0, false)
	eng.RunUntil(t1)
	// Conflict: same bank, different row. Bank stride is banks×lineSize;
	// row stride within a bank is banks × rowBytes.
	conflictAddr := int64(g.Banks) * g.RowBytes
	t2 := d.Access(conflictAddr, false)
	conflictLatency := t2 - t1
	wantMin := d.timing.TRP + d.timing.TRCD + d.timing.CL
	if conflictLatency < wantMin {
		t.Errorf("conflict latency %v < tRP+tRCD+CL %v", conflictLatency, wantMin)
	}
}

func TestControllerCompletesAllRequests(t *testing.T) {
	eng := sim.NewEngine()
	dimms := []*DIMM{
		NewDIMM(eng, "d0", DDR42400(), DefaultGeometry()),
		NewDIMM(eng, "d1", DDR42400(), DefaultGeometry()),
	}
	c := NewController(eng, "mc0", dimms, 64, 64)
	const n = 200
	completed := 0
	var lastDone sim.Time
	for i := 0; i < n; i++ {
		ok := c.Submit(&Request{
			Addr:  int64(i) * 64,
			Write: i%4 == 3,
			Done: func(at sim.Time) {
				completed++
				if at < lastDone {
					t.Errorf("completion at %v before earlier completion %v", at, lastDone)
				}
			},
		})
		if !ok {
			// Queue full: drain and retry.
			eng.Run()
			if !c.Submit(&Request{Addr: int64(i) * 64, Done: func(sim.Time) { completed++ }}) {
				t.Fatalf("submit failed after drain")
			}
		}
	}
	eng.Run()
	if completed != n {
		t.Errorf("completed = %d, want %d", completed, n)
	}
	if c.Served() != n {
		t.Errorf("served = %d, want %d", c.Served(), n)
	}
}

func TestControllerQueueBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDIMM(eng, "d0", DDR42400(), DefaultGeometry())
	c := NewController(eng, "mc0", []*DIMM{d}, 4, 4)
	accepted := 0
	for i := 0; i < 10; i++ {
		if c.Submit(&Request{Addr: int64(i) * 64}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted = %d with depth-4 read queue, want 4", accepted)
	}
	if c.StallEvents() != 6 {
		t.Errorf("stalls = %d, want 6", c.StallEvents())
	}
}

func TestControllerInterleavePolicies(t *testing.T) {
	eng := sim.NewEngine()
	dimms := []*DIMM{
		NewDIMM(eng, "d0", DDR42400(), DefaultGeometry()),
		NewDIMM(eng, "d1", DDR42400(), DefaultGeometry()),
	}
	c := NewController(eng, "mc0", dimms, 64, 64)

	// Cacheline interleave: consecutive lines alternate DIMMs.
	if c.dimmFor(0) == c.dimmFor(64) {
		t.Error("cacheline interleave put consecutive lines on the same DIMM")
	}
}

// Sequential streaming through the request-level model must achieve high
// row-hit rates and effective bandwidth within the band the bulk model
// assumes (the config's stream_efficiency of ~0.8).
func TestStreamingEfficiencyMatchesBulkAssumption(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDIMM(eng, "d0", DDR42400(), DefaultGeometry())
	c := NewController(eng, "mc0", []*DIMM{d}, 64, 64)

	const lines = 4096
	next := 0
	var finish sim.Time
	var submit func()
	submit = func() {
		for next < lines {
			addr := int64(next) * 64
			ok := c.Submit(&Request{Addr: addr, Done: func(at sim.Time) {
				if at > finish {
					finish = at
				}
				submit()
			}})
			if !ok {
				return // resubmit from a completion callback
			}
			next++
		}
	}
	submit()
	eng.Run()

	bytes := float64(lines * 64)
	eff := bytes / finish.Seconds() / d.timing.PeakBandwidth()
	// With bank-aware FR-FCFS and activation lookahead a sequential
	// stream runs near the bus bound; refresh and boundary activations
	// cost a few percent. The bulk model's 0.82 constant folds in the
	// additional controller realities (write drains, rank turnarounds)
	// this request-level model omits, so the measurement must bracket it
	// from above.
	if eff < 0.80 || eff > 1.0 {
		t.Errorf("sequential stream efficiency = %.3f, want in [0.80, 1.0] (bulk model assumes 0.82)", eff)
	}
	if hr := d.RowHitRate(); hr < 0.95 {
		t.Errorf("row hit rate = %.3f for sequential stream, want > 0.95", hr)
	}
}

func TestPortStreamVsRandom(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPort(eng, "dram", 19.2e9, 0, 0.82, 0.35)
	n := int64(1 << 20)
	tStream := p.Stream(n)
	eng2 := sim.NewEngine()
	p2 := NewPort(eng2, "dram", 19.2e9, 0, 0.82, 0.35)
	tRandom := p2.Random(n)
	if tRandom <= tStream {
		t.Errorf("random (%v) not slower than stream (%v)", tRandom, tStream)
	}
	ratio := float64(tRandom) / float64(tStream)
	want := 0.82 / 0.35
	if ratio < want*0.95 || ratio > want*1.05 {
		t.Errorf("random/stream ratio = %.2f, want ~%.2f", ratio, want)
	}
}

func TestPortSharedLinkContention(t *testing.T) {
	eng := sim.NewEngine()
	shared := sim.NewLink(eng, "channel", 19.2e9, 0)
	a := NewPortOn(shared, 0.82, 0.35)
	b := NewPortOn(shared, 0.82, 0.35)
	n := int64(1 << 20)
	t1 := a.Stream(n)
	t2 := b.Stream(n)
	if t2 <= t1 {
		t.Errorf("second port's transfer (%v) did not queue behind first (%v)", t2, t1)
	}
	if shared.QueuedDelay() == 0 {
		t.Error("no contention recorded on shared channel")
	}
}

// Property: total DIMM bus bytes equal lines × lineSize for any access
// pattern — the bank model never loses or duplicates data.
func TestDIMMConservesBytes(t *testing.T) {
	f := func(addrs []uint16) bool {
		eng := sim.NewEngine()
		d := NewDIMM(eng, "d0", DDR42400(), DefaultGeometry())
		for _, a := range addrs {
			d.Access(int64(a)*64, a%2 == 0)
			eng.Run()
		}
		return d.BusBytes() == uint64(len(addrs))*64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: bank-ready times never move backwards — causality in the bank
// state machine.
func TestDIMMMonotonicBankTime(t *testing.T) {
	f := func(addrs []uint16) bool {
		eng := sim.NewEngine()
		d := NewDIMM(eng, "d0", DDR42400(), DefaultGeometry())
		var prev sim.Time
		for _, a := range addrs {
			done := d.Access(int64(a)*64, false)
			if done < prev && sameBank(d, int64(a)*64, prev) {
				return false
			}
			if done > prev {
				prev = done
			}
			eng.Run()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sameBank(d *DIMM, addr int64, _ sim.Time) bool {
	// helper kept trivial: all completions share the data bus, so they are
	// globally ordered regardless of bank.
	return true
}
