package sim

import (
	"fmt"
	"math"
)

// Link is the canonical Connection: a shared, serialised bandwidth
// resource — a DDR4 channel, the AIMbus, a PCIe link, a NoC port, an SSD's
// internal flash interconnect.
//
// Transfers reserve capacity in FIFO order: a transfer issued while the
// link is busy queues behind the in-flight ones. This captures the
// first-order contention behaviour that the ReACH evaluation depends on
// (host IO saturation in the rerank stage, DRAM channel sharing in
// shortlist retrieval) without per-flit events, so multi-gigabyte streams
// simulate in microseconds of wall time.
//
// Every link registers itself in its engine's StatsRegistry and is
// instrumented at this base layer: payload bytes, busy time, transfer
// count and accumulated queueing delay.
type Link struct {
	eng  *Engine
	name string

	bytesPerSec float64 // payload capacity
	latency     Time    // propagation/serialisation latency added per transfer

	nextFree Time // time at which the link's capacity is next available

	// accounting
	totalBytes     uint64
	busy           Time
	transfers      uint64
	queuedDelay    Time // accumulated time transfers spent waiting for capacity
	firstActivity  Time
	lastActivity   Time
	everTransfered bool
}

// NewLink creates a link on eng with the given payload bandwidth (bytes per
// second) and fixed per-transfer latency, registered on eng's registry
// under name.
func NewLink(eng *Engine, name string, bytesPerSec float64, latency Time) *Link {
	if eng == nil {
		panic("sim: NewLink with nil engine")
	}
	if bytesPerSec <= 0 || math.IsNaN(bytesPerSec) || math.IsInf(bytesPerSec, 0) {
		panic(fmt.Sprintf("sim: link %q invalid bandwidth %v B/s", name, bytesPerSec))
	}
	if latency < 0 {
		panic(fmt.Sprintf("sim: link %q negative latency", name))
	}
	l := &Link{
		eng:         eng,
		bytesPerSec: bytesPerSec,
		latency:     latency,
	}
	l.name = eng.Stats().Register(name, l)
	return l
}

// Name reports the link's registered name.
func (l *Link) Name() string { return l.name }

// BytesPerSec reports the link's configured payload bandwidth.
func (l *Link) BytesPerSec() float64 { return l.bytesPerSec }

// Latency reports the link's fixed per-transfer latency.
func (l *Link) Latency() Time { return l.latency }

// duration returns the capacity occupancy time of a transfer of n bytes.
func (l *Link) duration(n int64) Time {
	if n <= 0 {
		return 0
	}
	d := float64(n) / l.bytesPerSec * float64(Second)
	if d >= float64(math.MaxInt64) {
		return MaxTime
	}
	t := Time(d + 0.5)
	if t == 0 {
		t = 1 // every nonempty transfer occupies at least one picosecond
	}
	return t
}

// reserve is the single serialisation point every transfer flavour routes
// through: it queues the occupancy behind in-flight work (FIFO), accounts
// waiting and busy time, and returns the occupancy's end time (link
// latency excluded).
func (l *Link) reserve(start Time, occupancy Time, payload int64) Time {
	begin := start
	if l.nextFree > begin {
		l.queuedDelay += l.nextFree - begin
		begin = l.nextFree
	}
	end := begin + occupancy
	l.nextFree = end
	if payload > 0 {
		l.totalBytes += uint64(payload)
		l.busy += occupancy
		l.transfers++
		if !l.everTransfered {
			l.firstActivity = begin
			l.everTransfered = true
		}
		l.lastActivity = end
	}
	return end
}

// Transfer reserves capacity for n bytes starting no earlier than now, and
// returns the simulated time at which the last byte arrives at the far end
// (including the link latency). The caller typically schedules its
// continuation at that time:
//
//	done := link.Transfer(bytes)
//	eng.At(done, func() { ... })
//
// Zero or negative sizes complete immediately at now+latency.
func (l *Link) Transfer(n int64) Time {
	return l.TransferAt(l.eng.Now(), n)
}

// TransferAt is Transfer with an explicit earliest start time, used when a
// producer knows data becomes available only at a future instant. start
// must not precede the current simulated time.
func (l *Link) TransferAt(start Time, n int64) Time {
	if now := l.eng.Now(); start < now {
		panic(fmt.Sprintf("sim: link %q TransferAt %v before now %v", l.name, start, now))
	}
	return l.reserve(start, l.duration(n), n) + l.latency
}

// TransferEff reserves capacity for n payload bytes moved at the given
// efficiency (0 < eff ≤ 1) of the link's peak bandwidth: the capacity
// occupancy is n/eff bytes' worth of time while accounting still records n
// payload bytes. This is how bulk models express row-miss or random-access
// inefficiency without per-line events.
func (l *Link) TransferEff(n int64, eff float64) Time {
	if eff <= 0 || eff > 1 || math.IsNaN(eff) {
		panic(fmt.Sprintf("sim: link %q invalid efficiency %v", l.name, eff))
	}
	return l.reserve(l.eng.Now(), l.duration(int64(float64(n)/eff+0.5)), n) + l.latency
}

// Occupy reserves the link's capacity for an explicit duration carrying the
// given payload byte count, queueing behind in-flight transfers. It is the
// primitive for occupancy not directly derivable from bandwidth — e.g.
// IOPS-limited random reads on an SSD.
func (l *Link) Occupy(d Time, payload int64) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: link %q negative occupancy", l.name))
	}
	return l.reserve(l.eng.Now(), d, payload) + l.latency
}

// NextFree reports when the link's capacity next becomes available.
func (l *Link) NextFree() Time { return l.nextFree }

// TotalBytes reports the total payload bytes moved over the link.
func (l *Link) TotalBytes() uint64 { return l.totalBytes }

// Transfers reports how many nonempty transfers the link carried.
func (l *Link) Transfers() uint64 { return l.transfers }

// BusyTime reports the total time the link's capacity was occupied.
func (l *Link) BusyTime() Time { return l.busy }

// QueuedDelay reports accumulated waiting time across all transfers —
// a direct measure of contention on the link.
func (l *Link) QueuedDelay() Time { return l.queuedDelay }

// Utilization reports busy time as a fraction of the link's active window
// (first transfer start to last transfer end). Returns 0 before any
// transfer.
func (l *Link) Utilization() float64 {
	if !l.everTransfered || l.lastActivity <= l.firstActivity {
		return 0
	}
	return float64(l.busy) / float64(l.lastActivity-l.firstActivity)
}

// ResourceStats implements Resource with the base-layer instrumentation.
func (l *Link) ResourceStats() ResourceStats {
	return ResourceStats{
		Kind:        KindConnection,
		Ops:         l.transfers,
		Bytes:       l.totalBytes,
		Busy:        l.busy,
		Wait:        l.queuedDelay,
		Utilization: l.Utilization(),
	}
}

// Reset clears accounting and availability, as if the link were newly
// created at the current simulated time.
func (l *Link) Reset() {
	l.nextFree = l.eng.Now()
	l.totalBytes = 0
	l.busy = 0
	l.transfers = 0
	l.queuedDelay = 0
	l.everTransfered = false
	l.firstActivity = 0
	l.lastActivity = 0
}
