// Package noc models the high-bandwidth network-on-chip that ties the CPU
// cores, the shared cache, the on-chip accelerator and the GAM together
// (paper Fig. 2). The model is a crossbar: every endpoint owns an ingress
// and an egress port with configurable bandwidth, a transfer occupies the
// source egress and destination ingress ports, and a fixed hop latency is
// added per traversal. Each port direction reports its bytes and transfers
// to the engine's stats registry. GAM command and status packets are not
// modelled here: the GAM charges its command latency itself.
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
	return done + x.hopLatency
}
