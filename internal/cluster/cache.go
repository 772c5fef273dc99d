package cluster

import "repro/internal/sim"

// This file is the cluster's front-end caching layer: a deterministic LRU
// result cache with sim-time TTL freshness, keyed by content, plus the
// in-flight coalescing (singleflight) table that collapses concurrent
// queries for the same content onto one scatter. Both structures live in
// the front-end domain and are consulted only from front-end events in
// arrival order, so their state — and therefore the simulation output —
// is byte-identical at any -j (see DESIGN.md §4h).
//
// Everything on the query hot path is pooled or preallocated: the LRU is
// an intrusive list over a fixed slot array, pending-scatter entries and
// their waiter slices recycle through a free list, and a hit allocates
// nothing beyond its qtrace interval.

// feCache is the front-end result cache. Its counters and its structural
// state (slots, index, LRU list) are touched only by the front-end domain.
type feCache struct {
	registered string
	capacity   int
	ttl        sim.Time

	slots      []cacheSlot
	index      map[int]int32 // content → slot
	head, tail int32         // MRU … LRU; -1 when empty
	free       []int32
	maxOcc     int

	hits      uint64
	misses    uint64
	expired   uint64
	coalesced uint64
	evictions uint64
	ageSum    sim.Time // sum of entry ages at hit time
}

// cacheSlot is one resident entry on the intrusive LRU list.
type cacheSlot struct {
	content    int
	filledAt   sim.Time
	prev, next int32
}

// newFECache builds a cache of `capacity` entries with freshness window
// ttl. capacity must be >= 1 (a zero-capacity configuration disables the
// cache at the Cluster layer instead of building one).
func newFECache(capacity int, ttl sim.Time) *feCache {
	c := &feCache{
		capacity: capacity,
		ttl:      ttl,
		slots:    make([]cacheSlot, capacity),
		index:    make(map[int]int32, capacity),
		head:     -1,
		tail:     -1,
		free:     make([]int32, 0, capacity),
	}
	for i := capacity - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	return c
}

// lookup consults the cache for content at simulated time now and counts
// the outcome. A resident entry whose age has reached the TTL is expired —
// removed and reported as a miss (the exact boundary age == ttl is stale).
// On a hit the entry moves to the MRU position and its age at serve time
// feeds the stale-serve accounting.
func (c *feCache) lookup(content int, now sim.Time) (hit bool, age sim.Time) {
	s, ok := c.index[content]
	if !ok {
		c.misses++
		return false, 0
	}
	age = now - c.slots[s].filledAt
	if age >= c.ttl {
		c.remove(s)
		delete(c.index, content)
		c.free = append(c.free, s)
		c.expired++
		return false, 0
	}
	c.remove(s)
	c.pushFront(s)
	c.hits++
	c.ageSum += age
	return true, age
}

// fill inserts (or refreshes) content's result at simulated time now,
// evicting the LRU entry when the cache is full.
func (c *feCache) fill(content int, now sim.Time) {
	if s, ok := c.index[content]; ok {
		c.slots[s].filledAt = now
		c.remove(s)
		c.pushFront(s)
		return
	}
	var s int32
	if n := len(c.free); n > 0 {
		s = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		s = c.tail
		delete(c.index, c.slots[s].content)
		c.remove(s)
		c.evictions++
	}
	c.slots[s] = cacheSlot{content: content, filledAt: now}
	c.pushFront(s)
	c.index[content] = s
	if occ := len(c.index); occ > c.maxOcc {
		c.maxOcc = occ
	}
}

// remove unlinks slot s from the LRU list.
func (c *feCache) remove(s int32) {
	sl := &c.slots[s]
	if sl.prev >= 0 {
		c.slots[sl.prev].next = sl.next
	} else {
		c.head = sl.next
	}
	if sl.next >= 0 {
		c.slots[sl.next].prev = sl.prev
	} else {
		c.tail = sl.prev
	}
}

// pushFront links slot s at the MRU position.
func (c *feCache) pushFront(s int32) {
	sl := &c.slots[s]
	sl.prev, sl.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

// Name implements sim.Resource.
func (c *feCache) Name() string { return c.registered }

// ResourceStats implements sim.Resource: lookups as Ops, misses plus
// expirations as Stalls, resident entries as Occupancy and the hit rate as
// Utilization. Call after the run drains — Occupancy reads the front-end
// domain's structural state.
func (c *feCache) ResourceStats() sim.ResourceStats {
	st := c.stats()
	rs := sim.ResourceStats{
		Kind:         sim.KindCache,
		Ops:          st.Lookups,
		Stalls:       st.Misses + st.Expired,
		Occupancy:    len(c.index),
		MaxOccupancy: c.maxOcc,
		Utilization:  st.HitRate,
	}
	return rs
}

// stats snapshots the counters.
func (c *feCache) stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Expired:   c.expired,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
	}
	st.Lookups = st.Hits + st.Misses + st.Expired
	if st.Lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Lookups)
	}
	if st.Hits > 0 {
		st.MeanServeAge = c.ageSum / sim.Time(st.Hits)
	}
	return st
}

// CacheStats is the front-end cache and coalescing accounting of one
// cluster run. Every arriving query performs exactly one lookup, so
// Lookups = Hits + Misses + Expired; Coalesced counts the subset of the
// missing/expired queries that attached to an in-flight scatter instead of
// starting their own, so the backend saw Lookups − Hits − Coalesced
// scatters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Expired   uint64
	Coalesced uint64
	Evictions uint64
	Lookups   uint64
	// HitRate is Hits over Lookups, in [0, 1].
	HitRate float64
	// MeanServeAge is the mean age of cached results at hit time — the
	// freshness (staleness) actually served to users.
	MeanServeAge sim.Time
}

// pending is one in-flight scatter other queries may coalesce onto.
type pending struct {
	lead    int
	waiters []int
}

// coalescer is the front-end's singleflight table: content → the one
// in-flight scatter for it. Entries and waiter slices recycle through a
// free list, so steady-state coalescing allocates nothing.
type coalescer struct {
	table map[int]*pending
	pool  []*pending
	peak  int
}

func newCoalescer() *coalescer {
	return &coalescer{table: make(map[int]*pending)}
}

// begin records query lead's scatter for content as the one in flight.
func (co *coalescer) begin(content, lead int) {
	var p *pending
	if n := len(co.pool); n > 0 {
		p = co.pool[n-1]
		co.pool = co.pool[:n-1]
		p.waiters = p.waiters[:0]
	} else {
		p = &pending{}
	}
	p.lead = lead
	co.table[content] = p
	if n := len(co.table); n > co.peak {
		co.peak = n
	}
}

// attach joins query qid to content's in-flight scatter, reporting whether
// one existed.
func (co *coalescer) attach(content, qid int) bool {
	p, ok := co.table[content]
	if !ok {
		return false
	}
	p.waiters = append(p.waiters, qid)
	return true
}

// finish removes and returns content's in-flight entry (nil when absent).
// The caller drains p.waiters and then returns the entry via release.
func (co *coalescer) finish(content int) *pending {
	p, ok := co.table[content]
	if !ok {
		return nil
	}
	delete(co.table, content)
	return p
}

// release recycles a finished entry.
func (co *coalescer) release(p *pending) { co.pool = append(co.pool, p) }

// PeakPending reports the deepest the singleflight table ever got — how
// many distinct contents had scatters in flight at once.
func (co *coalescer) PeakPending() int { return co.peak }
