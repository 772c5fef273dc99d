package mem

import "repro/internal/sim"

// Request is one line-granularity memory access submitted to a Controller.
type Request struct {
	Addr   int64
	Write  bool
	Done   func(completed sim.Time)
	issued sim.Time
}

// Fire implements sim.Handler: the controller schedules the request itself
// as its completion event (no per-request closure), firing Done at the
// access's completion instant.
func (r *Request) Fire(eng *sim.Engine, _ uint64) { r.Done(eng.Now()) }

// Controller is an FR-FCFS (first-ready, first-come-first-served) memory
// controller with bounded read and write queues, matching the paper's
// Table II (64/64-entry read/write request queues). FR-FCFS prioritises
// requests that hit an open row, falling back to the oldest request.
//
// The request queues are shared-layer sim.Queues registered in the central
// stats registry as "<name>.rdq" / "<name>.wrq", so occupancy, queueing
// delay and stall counts surface uniformly in reports.
type Controller struct {
	eng   *sim.Engine
	name  string
	dimms []*DIMM

	readQ  *sim.Queue
	writeQ *sim.Queue

	busy   bool
	served uint64
}

// NewController builds a controller over the given DIMMs.
func NewController(eng *sim.Engine, name string, dimms []*DIMM, readQ, writeQ int) *Controller {
	if len(dimms) == 0 {
		panic("mem: controller needs at least one DIMM")
	}
	if readQ <= 0 || writeQ <= 0 {
		panic("mem: queue depths must be positive")
	}
	return &Controller{
		eng:    eng,
		name:   name,
		dimms:  dimms,
		readQ:  sim.NewQueue(eng, name+".rdq", readQ),
		writeQ: sim.NewQueue(eng, name+".wrq", writeQ),
	}
}

// dimmFor maps an address to its DIMM: consecutive cache lines stripe
// across the controller's DIMMs.
func (c *Controller) dimmFor(addr int64) *DIMM {
	line := addr / c.dimms[0].geom.LineSize
	return c.dimms[line%int64(len(c.dimms))]
}

// Submit enqueues a request. It reports false (and drops the request) when
// the corresponding queue is full — callers model back-pressure by retrying
// after a delay. Done fires at the request's completion time.
func (c *Controller) Submit(r *Request) bool {
	if r == nil {
		panic("mem: nil request")
	}
	q := c.readQ
	if r.Write {
		q = c.writeQ
	}
	r.issued = c.eng.Now()
	if !q.Offer(r) {
		return false
	}
	if !c.busy {
		c.busy = true
		c.eng.ScheduleCall(0, c, 0)
	}
	return true
}

// Fire implements sim.Handler: every controller event is an arbitration
// pass, so the controller itself is the (single, preallocated) handler.
func (c *Controller) Fire(*sim.Engine, uint64) { c.arbitrate() }

// arbitrate issues one request per invocation using FR-FCFS and
// re-schedules itself while work remains. Reads have priority over writes
// unless the write queue is above half occupancy (write drain), a common
// controller heuristic.
func (c *Controller) arbitrate() {
	r := c.pick()
	if r == nil {
		c.busy = false
		return
	}
	d := c.dimmFor(r.Addr)
	done := d.Access(r.Addr, r.Write)
	c.served++
	if r.Done != nil {
		c.eng.AtCall(done, r, 0)
	}
	// Issue the next request once this one's command slot is consumed.
	// Approximating the command bus as one issue per burst slot keeps
	// arbitration events bounded by request count.
	next := c.eng.Now() + d.timing.BurstTime()
	if done < next {
		next = done
	}
	c.eng.AtCall(next, c, 0)
}

// pick selects the next request: row-hit first (FR), then oldest (FCFS).
func (c *Controller) pick() *Request {
	drainWrites := c.writeQ.Len() > c.writeQ.Capacity()/2 || c.readQ.Len() == 0
	primary, secondary := c.readQ, c.writeQ
	if drainWrites && c.writeQ.Len() > 0 {
		primary, secondary = c.writeQ, c.readQ
	}
	for _, q := range []*sim.Queue{primary, secondary} {
		if q.Len() == 0 {
			continue
		}
		// First ready: earliest queued request whose row is open AND whose
		// bank is available no later than the oldest request's bank — a
		// row hit on a busy bank must not jump a ready oldest request.
		oldest := q.At(0).(*Request)
		oldestReady := c.dimmFor(oldest.Addr).bankReady(oldest.Addr)
		for i := 0; i < q.Len(); i++ {
			r := q.At(i).(*Request)
			d := c.dimmFor(r.Addr)
			bi, row := d.decode(r.Addr)
			if d.banks[bi].openRow == row && d.banks[bi].readyAt <= oldestReady {
				return q.RemoveAt(i).(*Request)
			}
		}
		// Fall back to the oldest.
		return q.RemoveAt(0).(*Request)
	}
	return nil
}

// Served reports completed requests.
func (c *Controller) Served() uint64 { return c.served }

// StallEvents reports how many submissions were rejected on full queues.
func (c *Controller) StallEvents() uint64 {
	return c.readQ.Stalls() + c.writeQ.Stalls()
}
