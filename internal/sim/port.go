package sim

import "fmt"

// Connection is serialised, shared bandwidth capacity with FIFO queueing —
// the interface every bandwidth-bound resource model programs against.
// Link is the canonical implementation; mem.Port, the NoC crossbar, the
// AIMbus, the host PCIe link and the SSD flash interconnects are all
// Connections under the hood.
type Connection interface {
	Resource
	// Transfer reserves capacity for n bytes starting no earlier than now
	// and returns the arrival time of the last byte at the far end.
	Transfer(n int64) Time
	// TransferAt is Transfer with an explicit earliest start time.
	TransferAt(start Time, n int64) Time
	// TransferEff moves n payload bytes at the given fraction of peak
	// bandwidth (row-miss or random-access inefficiency in bulk form).
	TransferEff(n int64, eff float64) Time
	// Occupy reserves capacity for an explicit duration carrying the given
	// payload (IOPS-limited occupancy not derivable from bandwidth).
	Occupy(d Time, payload int64) Time
	// NextFree reports when capacity next becomes available.
	NextFree() Time
	// BytesPerSec reports the configured peak payload bandwidth.
	BytesPerSec() float64
}

// Port is a bounded-FIFO endpoint with asynchronous park/wake back-pressure
// — the interface of the ReACH stream buffers between compute levels.
// TokenQueue is the canonical implementation.
type Port interface {
	Resource
	// Put offers an item; done (optional) runs at the simulated time the
	// item is accepted (immediately, or when a consumer frees a slot).
	Put(item any, done func())
	// Get asks for the next item; onItem runs at the simulated time an
	// item is available.
	Get(onItem func(any))
	// TryGet pops a buffered item without parking.
	TryGet() (any, bool)
	// Len reports current occupancy; Capacity the configured depth.
	Len() int
	Capacity() int
}

// Statically assert the canonical implementations satisfy the trio.
var (
	_ Connection = (*Link)(nil)
	_ Port       = (*TokenQueue)(nil)
	_ Resource   = (*Queue)(nil)
	_ Resource   = (*Window)(nil)
)

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
