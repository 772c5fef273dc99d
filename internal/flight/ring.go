package flight

import "repro/internal/sim"

// ring is the recorder's one trailing-window store, backing the query,
// observation and barrier rings alike. Entries are pushed in
// nondecreasing stamp order (both recorder inputs are serialised by the
// engine; see the package doc), and each push evicts every entry stamped
// more than span before it. The dead prefix is compacted away once it
// dominates the backing slice, so memory stays bounded by the window and
// maintenance is O(1) amortised per push.
type ring[T any] struct {
	span sim.Time
	buf  []stamped[T]
	head int // index of the oldest live entry
}

// stamped is one ring entry: a value and the simulated instant it was
// pushed at.
type stamped[T any] struct {
	at sim.Time
	v  T
}

// push appends v stamped at t and evicts the entries older than t − span.
func (r *ring[T]) push(t sim.Time, v T) {
	r.buf = append(r.buf, stamped[T]{at: t, v: v})
	cut := t - r.span
	for r.head < len(r.buf) && r.buf[r.head].at < cut {
		r.buf[r.head] = stamped[T]{} // release the evicted value for GC
		r.head++
	}
	if r.head > 64 && r.head > len(r.buf)/2 {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf = r.buf[:n]
		r.head = 0
	}
}

// live returns the retained entries, oldest first. The slice aliases the
// ring and is valid until the next push.
func (r *ring[T]) live() []stamped[T] { return r.buf[r.head:] }

// values copies the retained values out, oldest first (nil when empty).
func (r *ring[T]) values() []T {
	var out []T
	for _, e := range r.live() {
		out = append(out, e.v)
	}
	return out
}
