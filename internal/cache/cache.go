// Package cache models the shared last-level cache of the ReACH host chip:
// a set-associative, write-back/write-allocate cache with LRU replacement,
// per-access accounting for the energy model, and the forced-writeback
// operation GAM issues before launching near-memory kernels whose inputs
// may be cached (paper §III-B step 2b).
//
// No simulated node instantiates it: accel.Platform models the LLC in bulk
// from its configured capacity, and this request-level model is kept as
// the reference that bulk model can be checked against.
package cache

import (
	"fmt"
)

// AccessResult describes what one access did.
type AccessResult struct {
	Hit       bool
	Evicted   bool  // a valid line was displaced
	WriteBack bool  // the displaced line was dirty
	Victim    int64 // address of the written-back line (valid when WriteBack)
}

type line struct {
	tag   int64
	valid bool
	dirty bool
	lru   uint64 // higher = more recently used
}

// Cache is a set-associative cache indexed by physical address.
// It is a functional/statistical model: it tracks hit/miss/writeback
// behaviour and counters, not data contents (data lives in the functional
// layer of the simulator).
type Cache struct {
	name      string
	lineSize  int64
	sets      int
	assoc     int
	data      []line // sets × assoc
	clock     uint64 // LRU timestamp source
	hits      uint64
	misses    uint64
	evictions uint64
	wbs       uint64
	readAcc   uint64
	writeAcc  uint64
	flushes   uint64
	flushedWB uint64
}

// New constructs a cache of capacityBytes with the given associativity and
// line size. capacity must be divisible into a whole, nonzero number of
// power-of-two sets.
func New(name string, capacityBytes int64, assoc int, lineSize int64) (*Cache, error) {
	if capacityBytes <= 0 || assoc <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache %s: capacity, associativity and line size must be positive", name)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineSize)
	}
	linesTotal := capacityBytes / lineSize
	if linesTotal == 0 || linesTotal%int64(assoc) != 0 {
		return nil, fmt.Errorf("cache %s: capacity %d not divisible into %d-way sets of %d-byte lines",
			name, capacityBytes, assoc, lineSize)
	}
	sets := int(linesTotal / int64(assoc))
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", name, sets)
	}
	return &Cache{
		name:     name,
		lineSize: lineSize,
		sets:     sets,
		assoc:    assoc,
		data:     make([]line, sets*assoc),
	}, nil
}

// MustNew is New panicking on error, for static configurations.
func MustNew(name string, capacityBytes int64, assoc int, lineSize int64) *Cache {
	c, err := New(name, capacityBytes, assoc, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// Name reports the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// LineSize reports the cache's line size in bytes.
func (c *Cache) LineSize() int64 { return c.lineSize }

// CapacityBytes reports total data capacity.
func (c *Cache) CapacityBytes() int64 {
	return int64(c.sets) * int64(c.assoc) * c.lineSize
}

func (c *Cache) index(addr int64) (set int, tag int64) {
	lineAddr := addr / c.lineSize
	return int(lineAddr % int64(c.sets)), lineAddr / int64(c.sets)
}

func (c *Cache) set(i int) []line {
	return c.data[i*c.assoc : (i+1)*c.assoc]
}

// Access performs one read (write=false) or write (write=true) at addr,
// returning what happened. Writes mark the line dirty (write-back policy);
// misses allocate (write-allocate).
func (c *Cache) Access(addr int64, write bool) AccessResult {
	if write {
		c.writeAcc++
	} else {
		c.readAcc++
	}
	setIdx, tag := c.index(addr)
	ways := c.set(setIdx)
	c.clock++

	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.hits++
			ways[i].lru = c.clock
			if write {
				ways[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.misses++

	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	res := AccessResult{}
	if ways[victim].valid {
		c.evictions++
		res.Evicted = true
		if ways[victim].dirty {
			c.wbs++
			res.WriteBack = true
			res.Victim = (ways[victim].tag*int64(c.sets) + int64(setIdx)) * c.lineSize
		}
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return res
}

// Contains reports whether addr's line is present (without touching LRU).
func (c *Cache) Contains(addr int64) bool {
	setIdx, tag := c.index(addr)
	for _, w := range c.set(setIdx) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// FlushRange writes back and invalidates every cached line in
// [addr, addr+size) and reports how many dirty lines were written back —
// the data volume GAM must push to DRAM before a near-memory kernel may
// run, and to storage before a near-storage kernel may run.
func (c *Cache) FlushRange(addr, size int64) (writebacks int) {
	c.flushes++
	if size <= 0 {
		return 0
	}
	first := addr / c.lineSize
	last := (addr + size - 1) / c.lineSize
	// For large ranges, walking the cache is cheaper than walking the range.
	if last-first+1 >= int64(len(c.data)) {
		for i := range c.data {
			w := &c.data[i]
			if !w.valid {
				continue
			}
			setIdx := i / c.assoc
			lineAddr := (w.tag*int64(c.sets) + int64(setIdx)) * c.lineSize
			if lineAddr >= addr && lineAddr < addr+size {
				if w.dirty {
					writebacks++
					c.wbs++
				}
				w.valid = false
			}
		}
		c.flushedWB += uint64(writebacks)
		return writebacks
	}
	for la := first; la <= last; la++ {
		a := la * c.lineSize
		setIdx, tag := c.index(a)
		ways := c.set(setIdx)
		for i := range ways {
			if ways[i].valid && ways[i].tag == tag {
				if ways[i].dirty {
					writebacks++
					c.wbs++
				}
				ways[i].valid = false
			}
		}
	}
	c.flushedWB += uint64(writebacks)
	return writebacks
}

// FlushAll writes back and invalidates everything.
func (c *Cache) FlushAll() (writebacks int) {
	c.flushes++
	for i := range c.data {
		if c.data[i].valid && c.data[i].dirty {
			writebacks++
			c.wbs++
		}
		c.data[i].valid = false
	}
	c.flushedWB += uint64(writebacks)
	return writebacks
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Reads, Writes        uint64
	Hits, Misses         uint64
	Evictions            uint64
	WriteBacks           uint64
	Flushes, FlushedDirt uint64
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Reads: c.readAcc, Writes: c.writeAcc,
		Hits: c.hits, Misses: c.misses,
		Evictions:  c.evictions,
		WriteBacks: c.wbs,
		Flushes:    c.flushes, FlushedDirt: c.flushedWB,
	}
}

// HitRate reports hits / accesses, 0 before any access.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
