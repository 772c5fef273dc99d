// Package noc models the high-bandwidth network-on-chip that ties the CPU
// cores, the shared cache, the on-chip accelerator and the GAM together
// (paper Fig. 2). The model is a crossbar: every endpoint owns an ingress
// and an egress port with configurable bandwidth, a transfer occupies the
// source egress and destination ingress ports, and a fixed hop latency is
// added per traversal. Command packets (GAM ↔ accelerators) are modelled as
// small high-priority messages with their own latency.
package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Port identifies an endpoint attached to the crossbar. Its ingress and
// egress directions are shared-layer sim.Links registered in the central
// stats registry as "<xbar>.<port>.in" / ".out".
type Port struct {
	egress  *sim.Link
	ingress *sim.Link
}

// Crossbar is the on-chip interconnect.
type Crossbar struct {
	eng        *sim.Engine
	name       string
	hopLatency sim.Time
	ports      map[string]*Port
	transfers  uint64
	totalBytes uint64
}

// New creates an empty crossbar with the given per-traversal hop latency.
func New(eng *sim.Engine, name string, hopLatency sim.Time) *Crossbar {
	return &Crossbar{
		eng:        eng,
		name:       name,
		hopLatency: hopLatency,
		ports:      make(map[string]*Port),
	}
}

// AddPort attaches an endpoint with the given full-duplex bandwidth
// (bytes/second per direction). Adding a duplicate name is an error.
func (x *Crossbar) AddPort(name string, bytesPerSec float64) (*Port, error) {
	if _, dup := x.ports[name]; dup {
		return nil, fmt.Errorf("noc: duplicate port %q", name)
	}
	p := &Port{
		egress:  sim.NewLink(x.eng, x.name+"."+name+".out", bytesPerSec, 0),
		ingress: sim.NewLink(x.eng, x.name+"."+name+".in", bytesPerSec, 0),
	}
	x.ports[name] = p
	return p, nil
}

// MustAddPort is AddPort panicking on error, for static topologies.
func (x *Crossbar) MustAddPort(name string, bytesPerSec float64) *Port {
	p, err := x.AddPort(name, bytesPerSec)
	if err != nil {
		panic(err)
	}
	return p
}

// Transfer moves n bytes from src to dst and returns the completion time.
// The transfer occupies the source egress and destination ingress ports;
// the effective rate is the narrower of the two, modelled by serialising
// through both and taking the later completion, plus one hop latency.
func (x *Crossbar) Transfer(src, dst *Port, n int64) sim.Time {
	if src == nil || dst == nil {
		panic("noc: transfer with nil port")
	}
	if src == dst {
		// Loopback costs only the hop latency.
		return x.eng.Now() + x.hopLatency
	}
	out := src.egress.Transfer(n)
	in := dst.ingress.Transfer(n)
	done := out
	if in > done {
		done = in
	}
	if n > 0 {
		x.transfers++
		x.totalBytes += uint64(n)
	}
	return done + x.hopLatency
}

// Command sends a small control packet (GAM command or status packet) from
// src to dst; it does not consume measurable port bandwidth and completes
// after the hop latency plus the given processing latency.
func (x *Crossbar) Command(src, dst *Port, processing sim.Time) sim.Time {
	if src == nil || dst == nil {
		panic("noc: command with nil port")
	}
	return x.eng.Now() + x.hopLatency + processing
}

// TotalBytes reports payload moved through the crossbar.
func (x *Crossbar) TotalBytes() uint64 { return x.totalBytes }

// Transfers reports the number of nonempty transfers.
func (x *Crossbar) Transfers() uint64 { return x.transfers }
