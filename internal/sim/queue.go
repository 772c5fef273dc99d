package sim

import "fmt"

// TokenQueue is a counted bounded FIFO, registered as a "port" resource:
// the ReACH stream buffers between compute levels (paper §III-B). Put and
// Get complete at once, so a queue throttles nothing; a put into a full
// queue or a get from an empty one is a model bug and panics. What the
// queue adds is accounting: items passed and the occupancy high-water mark
// show up in its engine's StatsRegistry.
type TokenQueue struct {
	name     string
	capacity int

	// items is the buffer with head as its pop index: popping advances
	// head and pushing appends, so the backing array is reused in place
	// once it drains instead of being re-allocated every wraparound —
	// steady-state put/get traffic (the GAM stream buffers) is
	// allocation-free.
	items []any
	head  int

	puts         uint64
	maxOccupancy int
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
	q := &TokenQueue{capacity: capacity}
	q.name = eng.Stats().Register(name, q)
	return q
}

// Name reports the queue's registered name.
func (q *TokenQueue) Name() string { return q.name }

// Len reports the number of items currently buffered.
func (q *TokenQueue) Len() int { return len(q.items) - q.head }

// Put appends item and then runs done (optional). Putting into a full
// queue panics.
func (q *TokenQueue) Put(item any, done func()) {
	if q.Len() == q.capacity {
		panic(fmt.Sprintf("sim: Put into full TokenQueue %q", q.name))
	}
	q.puts++
	q.items = append(q.items, item)
	if occ := q.Len(); occ > q.maxOccupancy {
		q.maxOccupancy = occ
	}
	if done != nil {
		done()
	}
}

// Get removes the oldest item and passes it to onItem. Getting from an
// empty queue panics.
func (q *TokenQueue) Get(onItem func(any)) {
	if onItem == nil {
		panic("sim: TokenQueue.Get with nil callback")
	}
	if q.Len() == 0 {
		panic(fmt.Sprintf("sim: Get from empty TokenQueue %q", q.name))
	}
	item := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	onItem(item)
}

// MaxOccupancy reports the high-water mark of buffered items.
func (q *TokenQueue) MaxOccupancy() int { return q.maxOccupancy }

// ResourceStats implements Resource. A put never waits, so Wait and
// Stalls are zero.
func (q *TokenQueue) ResourceStats() ResourceStats {
	return ResourceStats{
		Kind:         KindPort,
		Ops:          q.puts,
		Occupancy:    q.Len(),
		MaxOccupancy: q.maxOccupancy,
	}
}

// queueEntry pairs a queued item with its enqueue time for wait accounting.
type queueEntry struct {
	item any
	at   Time
}

// Queue is a bounded, instrumented request queue whose consumer may scan
// entries and remove them out of order — the shape of an FR-FCFS memory
// controller's read/write queues, where a row-hit request overtakes older
// ones. Offers that find the queue full are rejected and counted as
// stalls; callers model back-pressure by retrying.
type Queue struct {
	eng      *Engine
	name     string
	capacity int
	entries  []queueEntry

	offers   uint64
	served   uint64
	stalls   uint64
	maxOcc   int
	waitTime Time
}

// NewQueue creates a bounded queue and registers it on eng's registry.
func NewQueue(eng *Engine, name string, capacity int) *Queue {
	if eng == nil {
		panic("sim: NewQueue with nil engine")
	}
	if capacity < 1 {
		panic(fmt.Sprintf("sim: queue %q capacity must be >= 1", name))
	}
	q := &Queue{eng: eng, capacity: capacity}
	q.name = eng.Stats().Register(name, q)
	return q
}

// Name reports the registered name.
func (q *Queue) Name() string { return q.name }

// Capacity reports the configured depth.
func (q *Queue) Capacity() int { return q.capacity }

// Len reports current occupancy.
func (q *Queue) Len() int { return len(q.entries) }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return len(q.entries) >= q.capacity }

// Offer appends item, reporting false (a counted stall) when full.
func (q *Queue) Offer(item any) bool {
	q.offers++
	if len(q.entries) >= q.capacity {
		q.stalls++
		return false
	}
	q.entries = append(q.entries, queueEntry{item: item, at: q.eng.Now()})
	if len(q.entries) > q.maxOcc {
		q.maxOcc = len(q.entries)
	}
	return true
}

// At returns the i-th queued item without removing it (0 = oldest).
func (q *Queue) At(i int) any { return q.entries[i].item }

// RemoveAt removes and returns the i-th item, recording its queueing wait.
func (q *Queue) RemoveAt(i int) any {
	e := q.entries[i]
	q.entries = append(q.entries[:i], q.entries[i+1:]...)
	q.served++
	if w := q.eng.Now() - e.at; w > 0 {
		q.waitTime += w
	}
	return e.item
}

// Served reports how many entries were removed.
func (q *Queue) Served() uint64 { return q.served }

// Stalls reports rejected offers.
func (q *Queue) Stalls() uint64 { return q.stalls }

// ResourceStats implements Resource.
func (q *Queue) ResourceStats() ResourceStats {
	return ResourceStats{
		Kind:         KindQueue,
		Ops:          q.served,
		Wait:         q.waitTime,
		Stalls:       q.stalls,
		Occupancy:    len(q.entries),
		MaxOccupancy: q.maxOcc,
	}
}

// Window models an outstanding-operations limit over a time-analytic
// command loop: an NVMe submission queue's depth, a bounded number of
// in-flight DMA descriptors. Admission of a new operation when the window
// is full waits for the oldest outstanding completion (FIFO), which is
// exactly the host-side behaviour of a driver keeping a queue pair full.
type Window struct {
	eng   *Engine
	name  string
	depth int

	inflight []Time // completion times of admitted ops, oldest first

	admitted uint64
	stalls   uint64
	waitTime Time
	maxOcc   int
}

// NewWindow creates a window of the given depth and registers it.
func NewWindow(eng *Engine, name string, depth int) *Window {
	if eng == nil {
		panic("sim: NewWindow with nil engine")
	}
	if depth < 1 {
		panic(fmt.Sprintf("sim: window %q depth must be >= 1", name))
	}
	w := &Window{eng: eng, depth: depth}
	w.name = eng.Stats().Register(name, w)
	return w
}

// Name reports the registered name.
func (w *Window) Name() string { return w.name }

// Depth reports the configured limit.
func (w *Window) Depth() int { return w.depth }

// Admit requests a slot for an operation wanting to start at `at`. When
// the window is full it retires the oldest outstanding completion and
// returns the (possibly delayed) admission time; the delay is recorded as
// wait. Callers pair every Admit with one Complete.
func (w *Window) Admit(at Time) Time {
	w.admitted++
	if len(w.inflight) >= w.depth {
		oldest := w.inflight[0]
		w.inflight = w.inflight[1:]
		if oldest > at {
			w.stalls++
			wait := oldest - at
			w.waitTime += wait
			return oldest
		}
	}
	return at
}

// Complete records the completion time of the operation admitted last.
func (w *Window) Complete(done Time) {
	w.inflight = append(w.inflight, done)
	if len(w.inflight) > w.maxOcc {
		w.maxOcc = len(w.inflight)
	}
}

// Outstanding reports current in-flight operations.
func (w *Window) Outstanding() int { return len(w.inflight) }

// WaitTime reports accumulated full-window admission delay.
func (w *Window) WaitTime() Time { return w.waitTime }

// ResourceStats implements Resource.
func (w *Window) ResourceStats() ResourceStats {
	return ResourceStats{
		Kind:         KindWindow,
		Ops:          w.admitted,
		Wait:         w.waitTime,
		Stalls:       w.stalls,
		Occupancy:    len(w.inflight),
		MaxOccupancy: w.maxOcc,
	}
}
