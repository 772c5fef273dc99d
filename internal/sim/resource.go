package sim

import (
	"fmt"
	"sort"
)

// This file defines the shared-resource layer every contended hardware
// model in the simulator is built on. The ReACH evaluation hangs on *where
// contention sits* in the hierarchy — AIMbus vs. DDR4 channels vs. PCIe
// vs. flash channels — so every one of those resources exposes the same
// uniform statistics through one central registry, and bottleneck
// attribution becomes a single pass over the registry instead of
// per-package plumbing.
//
// The layer is one interface, Resource (a hierarchical name and a uniform
// stats snapshot), over four concrete primitives:
//
//   - Link: serialised bandwidth capacity with FIFO queueing (a DDR4
//     channel, the AIMbus, a PCIe link, a NoC port link, an SSD's flash
//     interconnect).
//   - TokenQueue: a counted bounded FIFO (the stream buffers between
//     compute levels).
//   - Queue: a bounded scheduler-visible request queue whose consumer may
//     remove entries out of order (FR-FCFS).
//   - Window: an outstanding-operations limit (NVMe queue depth).
//
// All four primitives are instrumented at this base layer with plain
// counters (bytes, busy time, accumulated wait, stalls, occupancy
// high-water marks; no per-operation samples) and register themselves in
// the owning Engine's StatsRegistry under a dotted hierarchical name such
// as "mem.host", "noc.cpu.out" or "nvme.qp0.sq".

// ResourceKind classifies a registered resource.
type ResourceKind string

const (
	// KindConnection is serialised bandwidth capacity (Link).
	KindConnection ResourceKind = "connection"
	// KindPort is a counted stream buffer (TokenQueue).
	KindPort ResourceKind = "port"
	// KindQueue is a bounded scheduler request queue (Queue).
	KindQueue ResourceKind = "queue"
	// KindWindow is an outstanding-operations limiter (Window).
	KindWindow ResourceKind = "window"
	// KindCache is a capacity-bounded lookup structure (the cluster's
	// front-end result cache): Ops counts lookups, Stalls counts the ones
	// that missed or found an expired entry, Occupancy/MaxOccupancy track
	// resident entries and Utilization reports the hit rate.
	KindCache ResourceKind = "cache"
	// KindDomain is a synthetic per-event-domain series emitted by the
	// barrier-driven cluster sampler (metrics.MultiSampler), not a wired
	// resource: Occupancy is the domain calendar's pending population,
	// Stalls the inbound mailbox depth at the barrier, Ops the cumulative
	// events executed, Busy the domain's own clock and Wait its lag
	// behind the cluster frontier.
	KindDomain ResourceKind = "domain"
)

// ResourceStats is the uniform per-resource statistics snapshot. Fields
// that do not apply to a resource kind are zero (e.g. Bytes for a
// TokenQueue carrying opaque items).
type ResourceStats struct {
	Kind ResourceKind

	// Ops counts completed operations: transfers for a connection, items
	// accepted for a port, requests served for a queue, operations
	// admitted for a window.
	Ops uint64
	// Bytes is the total payload moved, where the resource carries bytes.
	Bytes uint64
	// Busy is the total time the resource's capacity was occupied.
	Busy Time
	// Wait is the accumulated time operations spent queued before the
	// resource served them — the direct measure of contention.
	Wait Time
	// Stalls counts back-pressure events: rejected offers and full-window
	// waits.
	Stalls uint64
	// Occupancy is the current number of queued entries (ports/queues).
	Occupancy int
	// MaxOccupancy is the high-water mark of queued entries.
	MaxOccupancy int
	// Utilization is busy time over the resource's active window, in
	// [0, 1]; zero before any activity.
	Utilization float64
}

// Resource is implemented by every shared hardware model registered in a
// StatsRegistry.
type Resource interface {
	// Name reports the hierarchical registry name ("mem.host",
	// "noc.cpu.out", "nvme.qp0.sq").
	Name() string
	// ResourceStats returns the uniform statistics snapshot.
	ResourceStats() ResourceStats
}

// StatsRegistry is the central directory of every shared resource attached
// to one Engine, keyed by hierarchical dotted name. Reports and traces
// walk the registry instead of reaching into individual packages.
//
// Walk order is sorted by name, so registry-driven output is deterministic
// regardless of construction order. The sorted order is cached between
// registrations: a periodic metrics sampler can walk the registry every
// tick without re-sorting or allocating.
type StatsRegistry struct {
	byName  map[string]Resource
	ordered []namedResource // sorted by name when `sorted` is true
	sorted  bool
	// prefix is prepended to every requested name at registration time —
	// how a cluster scopes each node's resources under "node<i>." on one
	// shared engine. Empty (the default) leaves names untouched, so
	// single-system registries are unaffected.
	prefix string
}

// namedResource is one cached (name, resource) pair in walk order.
type namedResource struct {
	name string
	res  Resource
}

// NewStatsRegistry returns an empty registry.
func NewStatsRegistry() *StatsRegistry {
	return &StatsRegistry{byName: make(map[string]Resource)}
}

// SetPrefix sets the name prefix applied to subsequent registrations and
// returns the previous prefix, so scoped construction can restore it:
//
//	old := reg.SetPrefix("node0.")
//	defer reg.SetPrefix(old)
func (r *StatsRegistry) SetPrefix(p string) (old string) {
	old = r.prefix
	r.prefix = p
	return old
}

// Register adds a resource under its requested name (with the current
// prefix prepended) and returns the name actually registered. Name
// collisions (several models constructed with the same diagnostic name on
// one engine) are resolved deterministically by appending "#2", "#3", ...
// so registration never fails and every resource stays reachable.
func (r *StatsRegistry) Register(name string, res Resource) string {
	if res == nil {
		panic("sim: registering nil resource")
	}
	if name == "" {
		name = "anon"
	}
	name = r.prefix + name
	final := name
	for n := 2; ; n++ {
		if _, taken := r.byName[final]; !taken {
			break
		}
		final = fmt.Sprintf("%s#%d", name, n)
	}
	r.byName[final] = res
	r.ordered = append(r.ordered, namedResource{name: final, res: res})
	r.sorted = false
	return final
}

// Lookup finds a resource by registered name.
func (r *StatsRegistry) Lookup(name string) (Resource, bool) {
	res, ok := r.byName[name]
	return res, ok
}

// Len reports how many resources are registered.
func (r *StatsRegistry) Len() int { return len(r.byName) }

// ensureSorted re-sorts the cached walk order after new registrations.
func (r *StatsRegistry) ensureSorted() {
	if r.sorted {
		return
	}
	sort.Slice(r.ordered, func(i, j int) bool { return r.ordered[i].name < r.ordered[j].name })
	r.sorted = true
}

// Names returns all registered names, sorted.
func (r *StatsRegistry) Names() []string {
	r.ensureSorted()
	out := make([]string, 0, len(r.ordered))
	for _, nr := range r.ordered {
		out = append(out, nr.name)
	}
	return out
}

// Walk visits every resource in sorted-name order. Between registrations
// the order is cached, so a steady-state walk performs no allocations —
// the property the periodic metrics sampler's zero-alloc gate depends on.
func (r *StatsRegistry) Walk(fn func(name string, res Resource)) {
	r.ensureSorted()
	for _, nr := range r.ordered {
		fn(nr.name, nr.res)
	}
}
