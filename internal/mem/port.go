package mem

import (
	"repro/internal/sim"
)

// Port is the bulk-access view of a memory resource: a capacity-limited,
// contended pipe with separate effective efficiencies for streaming and
// random access. Accelerator data paths use Ports to account
// multi-megabyte transfers without per-line events; the efficiencies are
// validated against the request-level Controller model by tests in this
// package.
//
// Port is a thin efficiency adapter over a shared sim.Link: all
// serialisation, queueing and statistics live in the link, which registers
// itself in the engine's central stats registry.
type Port struct {
	link      *sim.Link
	streamEff float64
	randomEff float64
}

// NewPort creates a port with the given peak bandwidth (bytes/second),
// per-transfer latency, and effective efficiencies for streaming vs.
// random access patterns.
func NewPort(eng *sim.Engine, name string, peakBytesPerSec float64, latency sim.Time, streamEff, randomEff float64) *Port {
	if streamEff <= 0 || streamEff > 1 || randomEff <= 0 || randomEff > 1 {
		panic("mem: port efficiencies must be in (0,1]")
	}
	return &Port{
		link:      sim.NewLink(eng, name, peakBytesPerSec, latency),
		streamEff: streamEff,
		randomEff: randomEff,
	}
}

// Stream accounts a sequential bulk transfer of n bytes and returns its
// completion time (contention with other users of the port included).
func (p *Port) Stream(n int64) sim.Time {
	return p.link.TransferEff(n, p.streamEff)
}

// Random accounts a random-access bulk transfer of n bytes.
func (p *Port) Random(n int64) sim.Time {
	return p.link.TransferEff(n, p.randomEff)
}

// TotalBytes reports payload bytes moved through the port.
func (p *Port) TotalBytes() uint64 { return p.link.TotalBytes() }

// BusyTime reports occupied capacity time.
func (p *Port) BusyTime() sim.Time { return p.link.BusyTime() }

// QueuedDelay reports accumulated contention delay.
func (p *Port) QueuedDelay() sim.Time { return p.link.QueuedDelay() }

// NextFree reports when the port next has free capacity.
func (p *Port) NextFree() sim.Time { return p.link.NextFree() }

// Link exposes the underlying link for shared-resource wiring (several
// ports can be layered over one physical channel via NewPortOn).
func (p *Port) Link() *sim.Link { return p.link }

// NewPortOn layers a port with its own efficiencies over an existing
// link, sharing its capacity with all other users — used to model
// several agents contending for one physical channel.
func NewPortOn(link *sim.Link, streamEff, randomEff float64) *Port {
	if streamEff <= 0 || streamEff > 1 || randomEff <= 0 || randomEff > 1 {
		panic("mem: port efficiencies must be in (0,1]")
	}
	return &Port{link: link, streamEff: streamEff, randomEff: randomEff}
}
