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
// Port is a thin efficiency adapter over the shared sim.Connection layer:
// all serialisation, queueing and statistics live in the connection, which
// registers itself in the engine's central stats registry.
type Port struct {
	conn      sim.Connection
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
		conn:      sim.NewLink(eng, name, peakBytesPerSec, latency),
		streamEff: streamEff,
		randomEff: randomEff,
	}
}

// Stream accounts a sequential bulk transfer of n bytes and returns its
// completion time (contention with other users of the port included).
func (p *Port) Stream(n int64) sim.Time {
	return p.conn.TransferEff(n, p.streamEff)
}

// Random accounts a random-access bulk transfer of n bytes.
func (p *Port) Random(n int64) sim.Time {
	return p.conn.TransferEff(n, p.randomEff)
}

// TotalBytes reports payload bytes moved through the port.
func (p *Port) TotalBytes() uint64 { return p.conn.ResourceStats().Bytes }

// BusyTime reports occupied capacity time.
func (p *Port) BusyTime() sim.Time { return p.conn.ResourceStats().Busy }

// QueuedDelay reports accumulated contention delay.
func (p *Port) QueuedDelay() sim.Time { return p.conn.ResourceStats().Wait }

// NextFree reports when the port next has free capacity.
func (p *Port) NextFree() sim.Time { return p.conn.NextFree() }

// Link exposes the underlying connection for shared-resource wiring
// (several ports can be layered over one physical channel via NewPortOn).
func (p *Port) Link() sim.Connection { return p.conn }

// NewPortOn layers a port with its own efficiencies over an existing
// connection, sharing its capacity with all other users — used to model
// several agents contending for one physical channel.
func NewPortOn(conn sim.Connection, streamEff, randomEff float64) *Port {
	if streamEff <= 0 || streamEff > 1 || randomEff <= 0 || randomEff > 1 {
		panic("mem: port efficiencies must be in (0,1]")
	}
	return &Port{conn: conn, streamEff: streamEff, randomEff: randomEff}
}
