package sim

// TokenQueue is the canonical Port: a bounded FIFO with asynchronous,
// callback-based put/get — the building block for the ReACH stream buffers
// (paper §III-B), which are depth-bounded queues between compute levels.
// Producers that find the queue full are parked until a consumer frees a
// slot, and vice versa; this is what throttles a fast pipeline stage to
// the rate of the slowest one.
//
// Every queue registers itself in its engine's StatsRegistry and
// accumulates park waits (producer back-pressure and consumer starvation)
// at this base layer.
type TokenQueue struct {
	eng      *Engine
	name     string
	capacity int

	// items is the buffer with head as its pop index: popping advances
	// head and pushing appends, so the backing array is reused in place
	// once it drains instead of being re-allocated every wraparound —
	// steady-state put/get traffic (the GAM stream buffers) is
	// allocation-free.
	items   []any
	head    int
	getters []pendingGet
	putters []pendingPut

	// accounting
	puts, gets   uint64
	putWaits     uint64
	getWaits     uint64
	maxOccupancy int
	waitTime     Time
}

type pendingPut struct {
	item   any
	done   func()
	parked Time
}

type pendingGet struct {
	onItem func(any)
	parked Time
}

// NewTokenQueue creates a queue holding at most capacity items, registered
// on eng's registry under name. capacity must be at least 1.
func NewTokenQueue(eng *Engine, name string, capacity int) *TokenQueue {
	if eng == nil {
		panic("sim: NewTokenQueue with nil engine")
	}
	if capacity < 1 {
		panic("sim: TokenQueue capacity must be >= 1")
	}
	q := &TokenQueue{eng: eng, capacity: capacity}
	q.name = eng.Stats().Register(name, q)
	return q
}

// Name reports the queue's registered name.
func (q *TokenQueue) Name() string { return q.name }

// Capacity reports the configured depth.
func (q *TokenQueue) Capacity() int { return q.capacity }

// Len reports the number of items currently buffered.
func (q *TokenQueue) Len() int { return len(q.items) - q.head }

// popItem removes and returns the oldest buffered item, recycling the
// backing array once it fully drains.
func (q *TokenQueue) popItem() any {
	item := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return item
}

// pushItem appends an item and tracks the occupancy high-water mark.
func (q *TokenQueue) pushItem(item any) {
	q.items = append(q.items, item)
	if occ := len(q.items) - q.head; occ > q.maxOccupancy {
		q.maxOccupancy = occ
	}
}

// recordWait accounts a park that began at parked and ended now.
func (q *TokenQueue) recordWait(parked Time) {
	if w := q.eng.Now() - parked; w > 0 {
		q.waitTime += w
	}
}

// Put offers item to the queue. done (optional) runs at the simulated time
// the item is accepted: immediately if there is space or a waiting getter,
// otherwise when a consumer frees a slot.
func (q *TokenQueue) Put(item any, done func()) {
	q.puts++
	// Fast path: hand directly to a parked getter.
	if len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = q.getters[1:]
		q.recordWait(g.parked)
		if done != nil {
			done()
		}
		g.onItem(item)
		return
	}
	if q.Len() < q.capacity {
		q.pushItem(item)
		if done != nil {
			done()
		}
		return
	}
	q.putWaits++
	q.putters = append(q.putters, pendingPut{item: item, done: done, parked: q.eng.Now()})
}

// Get asks for the next item. onItem runs at the simulated time an item is
// available: immediately if the queue is nonempty, otherwise when a
// producer delivers one.
func (q *TokenQueue) Get(onItem func(any)) {
	if onItem == nil {
		panic("sim: TokenQueue.Get with nil callback")
	}
	q.gets++
	if q.Len() > 0 {
		item := q.popItem()
		q.admitParkedPutter()
		onItem(item)
		return
	}
	if len(q.putters) > 0 {
		// Queue is empty but a producer is parked (possible only when
		// capacity fills and drains in the same instant); serve directly.
		p := q.putters[0]
		q.putters = q.putters[1:]
		q.recordWait(p.parked)
		if p.done != nil {
			p.done()
		}
		onItem(p.item)
		return
	}
	q.getWaits++
	q.getters = append(q.getters, pendingGet{onItem: onItem, parked: q.eng.Now()})
}

// TryGet pops an item if one is buffered, without parking.
func (q *TokenQueue) TryGet() (any, bool) {
	if q.Len() == 0 {
		return nil, false
	}
	item := q.popItem()
	q.gets++
	q.admitParkedPutter()
	return item, true
}

// admitParkedPutter moves the oldest parked producer into the freed slot.
func (q *TokenQueue) admitParkedPutter() {
	if len(q.putters) == 0 {
		return
	}
	p := q.putters[0]
	q.putters = q.putters[1:]
	q.pushItem(p.item)
	q.recordWait(p.parked)
	if p.done != nil {
		p.done()
	}
}

// PutWaits reports how many producers had to park (back-pressure events).
func (q *TokenQueue) PutWaits() uint64 { return q.putWaits }

// GetWaits reports how many consumers had to park (starvation events).
func (q *TokenQueue) GetWaits() uint64 { return q.getWaits }

// MaxOccupancy reports the high-water mark of buffered items.
func (q *TokenQueue) MaxOccupancy() int { return q.maxOccupancy }

// WaitTime reports accumulated producer+consumer park time.
func (q *TokenQueue) WaitTime() Time { return q.waitTime }

// ResourceStats implements Resource.
func (q *TokenQueue) ResourceStats() ResourceStats {
	return ResourceStats{
		Kind:         KindPort,
		Ops:          q.puts,
		Wait:         q.waitTime,
		Stalls:       q.putWaits + q.getWaits,
		Occupancy:    q.Len(),
		MaxOccupancy: q.maxOccupancy,
	}
}
