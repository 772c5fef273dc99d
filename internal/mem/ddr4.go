// Package mem models the main-memory system of the ReACH server at two
// levels of fidelity:
//
//   - a bulk model (Port.Stream / Port.Random) that accounts multi-megabyte
//     accelerator transfers on a shared link at a fixed streaming or
//     random-access efficiency, so billion-scale workloads simulate
//     quickly; the accelerator data paths use only this model;
//   - a request-level reference model: DDR4 DIMMs with banks, row buffers,
//     refresh and open- or closed-page policy behind an FR-FCFS Controller
//     with bounded read/write queues and cacheline interleaving. It
//     simulates each 64-byte access, and this package's tests run it on
//     sequential and random traffic to derive the bulk model's
//     stream_efficiency and random_efficiency.
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// DDR4Timing holds the JEDEC-style timing parameters the bank model uses,
// all in picoseconds. Defaults correspond to DDR4-2400 (CL17).
type DDR4Timing struct {
	TCK  sim.Time // bus clock period (data rate is 2/TCK transfers/s)
	CL   sim.Time // CAS latency
	TRCD sim.Time // activate to read/write
	TRP  sim.Time // precharge
	TRAS sim.Time // activate to precharge (minimum row-open time)
	TWR  sim.Time // write recovery
	BL   int      // burst length (transfers per access)
	// TREFI is the average refresh interval (one REF command per tREFI);
	// TRFC is the refresh cycle time during which the whole rank is
	// unavailable. Refresh steals TRFC/TREFI ≈ 4-5 % of bandwidth.
	TREFI sim.Time
	TRFC  sim.Time
}

// DDR42400 returns DDR4-2400 CL17 timing. One 64-byte line is BL=8
// transfers on a 64-bit bus.
func DDR42400() DDR4Timing {
	tck := sim.Time(833) // 0.833 ns
	return DDR4Timing{
		TCK:   tck,
		CL:    17 * 833 * sim.Picosecond,
		TRCD:  17 * 833 * sim.Picosecond,
		TRP:   17 * 833 * sim.Picosecond,
		TRAS:  39 * 833 * sim.Picosecond,
		TWR:   18 * 833 * sim.Picosecond,
		BL:    8,
		TREFI: 7800 * sim.Nanosecond, // 7.8 µs
		TRFC:  350 * sim.Nanosecond,  // 8 Gb-class device
	}
}

// BurstTime is the data-bus occupancy of one access: BL transfers at double
// data rate = BL/2 bus clocks.
func (t DDR4Timing) BurstTime() sim.Time {
	return sim.Time(t.BL/2) * t.TCK
}

// PeakBandwidth reports the theoretical channel bandwidth in bytes/second
// for a 64-bit (8-byte) bus.
func (t DDR4Timing) PeakBandwidth() float64 {
	transfersPerSec := 2.0 / t.TCK.Seconds()
	return transfersPerSec * 8
}

// Geometry describes the address organisation of a DIMM.
type Geometry struct {
	Banks    int   // banks per rank (DDR4: 16)
	Ranks    int   // ranks per DIMM
	RowBytes int64 // row-buffer size (typical: 8 KiB per bank row)
	LineSize int64 // access granularity (cache line)
}

// DefaultGeometry returns a single-rank, 16-bank DIMM with 8 KiB rows.
func DefaultGeometry() Geometry {
	return Geometry{Banks: 16, Ranks: 1, RowBytes: 8 << 10, LineSize: 64}
}

func (g Geometry) totalBanks() int { return g.Banks * g.Ranks }

// bank tracks per-bank row-buffer state.
type bank struct {
	openRow   int64 // -1 when precharged (closed)
	readyAt   sim.Time
	openedAt  sim.Time
	rowHits   uint64
	rowMisses uint64
}

// DIMM is one dual-inline memory module: a set of banks behind a shared
// data bus.
type DIMM struct {
	eng    *sim.Engine
	name   string
	timing DDR4Timing
	geom   Geometry
	banks  []bank
	bus    *sim.Link

	nextRefresh sim.Time
	refreshes   uint64

	// policy selects row-buffer management (open page by default).
	policy PagePolicy
}

// PagePolicy selects the row-buffer management strategy.
type PagePolicy int

const (
	// OpenPage leaves rows open after access (best for locality-rich
	// streams; the host controller's default).
	OpenPage PagePolicy = iota
	// ClosedPage precharges after every access (best for random traffic).
	ClosedPage
)

func (p PagePolicy) String() string {
	if p == ClosedPage {
		return "closed-page"
	}
	return "open-page"
}

// SetPagePolicy switches the DIMM's row-buffer management.
func (d *DIMM) SetPagePolicy(p PagePolicy) { d.policy = p }

// PagePolicy reports the active policy.
func (d *DIMM) PagePolicy() PagePolicy { return d.policy }

// NewDIMM constructs a DIMM on eng.
func NewDIMM(eng *sim.Engine, name string, timing DDR4Timing, geom Geometry) *DIMM {
	if geom.totalBanks() <= 0 || geom.RowBytes <= 0 || geom.LineSize <= 0 {
		panic(fmt.Sprintf("mem: invalid geometry %+v", geom))
	}
	d := &DIMM{
		eng:    eng,
		name:   name,
		timing: timing,
		geom:   geom,
		banks:  make([]bank, geom.totalBanks()),
		bus:    sim.NewLink(eng, name+".bus", timing.PeakBandwidth(), 0),
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	d.nextRefresh = timing.TREFI
	return d
}

// Name reports the DIMM's diagnostic name.
func (d *DIMM) Name() string { return d.name }

// decode splits a physical address into bank and row indices. Banks are
// interleaved at line granularity so sequential lines hit different banks
// (standard bank interleaving), and a full stripe of lines across all banks
// shares rows.
func (d *DIMM) decode(addr int64) (bankIdx int, row int64) {
	line := addr / d.geom.LineSize
	nb := int64(d.geom.totalBanks())
	bankIdx = int(line % nb)
	linesPerRow := d.geom.RowBytes / d.geom.LineSize
	row = (line / nb) / linesPerRow
	return bankIdx, row
}

// Access performs one line access at the current simulated time and returns
// the completion time of the data burst. The bank model applies row-hit,
// row-closed and row-conflict timing; the data bus serialises bursts.
func (d *DIMM) Access(addr int64, write bool) sim.Time {
	now := d.eng.Now()
	bi, row := d.decode(addr)
	b := &d.banks[bi]

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}
	start = d.applyRefresh(start)

	// Activation lookahead: with queued requests the controller issues
	// PRE/ACT on the command bus while earlier bursts still occupy the
	// data bus, so activation latency is charged only where the bank was
	// not idle long enough to hide it (FR-FCFS command overlap).
	var cmdDone sim.Time
	switch {
	case b.openRow == row:
		b.rowHits++
		cmdDone = start + d.timing.CL
	case b.openRow == -1:
		b.rowMisses++
		actAt := max(b.readyAt, now)
		b.openedAt = actAt
		cmdDone = max(actAt+d.timing.TRCD, start) + d.timing.CL
		b.openRow = row
	default:
		// Row conflict: respect tRAS before precharging the open row.
		b.rowMisses++
		pre := max(b.readyAt, now, b.openedAt+d.timing.TRAS)
		actAt := pre + d.timing.TRP
		cmdDone = max(actAt+d.timing.TRCD, start) + d.timing.CL
		b.openRow = row
		b.openedAt = actAt
	}

	// Burst occupies the shared data bus.
	done := d.bus.TransferAt(max(cmdDone, now), d.geom.LineSize)
	b.readyAt = done
	if write {
		b.readyAt += d.timing.TWR
	}
	if d.policy == ClosedPage {
		// Auto-precharge: the row closes with the burst; the precharge
		// overlaps the next access's command phase (charged via the
		// closed-row path it will take).
		b.openRow = -1
	}
	return done
}

// applyRefresh accounts for REF commands due before `start`: each pending
// refresh blocks the rank for tRFC, closing all rows. Returns the adjusted
// earliest start time. Disabled when TREFI is zero.
func (d *DIMM) applyRefresh(start sim.Time) sim.Time {
	if d.timing.TREFI <= 0 {
		return start
	}
	// Refreshes are keyed to wall-clock (engine) time: bank-ready times
	// include future bus reservations and must not pull refreshes forward,
	// or every refresh would re-inflate all banks' ready times and cascade.
	for d.nextRefresh <= d.eng.Now() {
		refEnd := d.nextRefresh + d.timing.TRFC
		d.refreshes++
		// Refresh precharges every bank.
		for i := range d.banks {
			d.banks[i].openRow = -1
			if d.banks[i].readyAt < refEnd {
				d.banks[i].readyAt = refEnd
			}
		}
		if start < refEnd {
			start = refEnd
		}
		d.nextRefresh += d.timing.TREFI
	}
	return start
}

// Refreshes reports REF commands issued so far.
func (d *DIMM) Refreshes() uint64 { return d.refreshes }

// RowHitRate reports the fraction of accesses that hit an open row.
func (d *DIMM) RowHitRate() float64 {
	var hits, total uint64
	for i := range d.banks {
		hits += d.banks[i].rowHits
		total += d.banks[i].rowHits + d.banks[i].rowMisses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// BusBytes reports total data moved over the DIMM bus.
func (d *DIMM) BusBytes() uint64 { return d.bus.TotalBytes() }

// bankReady reports when the bank serving addr is next available.
func (d *DIMM) bankReady(addr int64) sim.Time {
	bi, _ := d.decode(addr)
	return d.banks[bi].readyAt
}
