// Package sim provides the discrete-event simulation engine underlying the
// ReACH compute-hierarchy model: a virtual clock with picosecond resolution,
// an event calendar, frequency-domain clocks, and shared-bandwidth links
// with FIFO queueing used to model memory channels, buses and IO
// interconnects.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in picoseconds. Picosecond resolution lets the
// engine represent individual cycles of multi-GHz clock domains exactly
// (1 GHz period = 1000 ps) while an int64 still covers over 100 days of
// simulated time.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulated time.
const MaxTime Time = math.MaxInt64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds converts t to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// FromSeconds converts floating-point seconds to simulated Time,
// rounding to the nearest picosecond and saturating at MaxTime.
func FromSeconds(s float64) Time {
	ps := s * float64(Second)
	if ps >= float64(math.MaxInt64) {
		return MaxTime
	}
	if ps <= 0 {
		return 0
	}
	return Time(ps + 0.5)
}

// String renders the time with an auto-selected unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.6gns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Clock describes a frequency domain (an FPGA kernel clock, a DRAM bus
// clock, a PCIe symbol clock, ...). The zero Clock is invalid; use NewClock.
type Clock struct {
	freqHz float64
}

// NewClock returns a clock domain running at freqHz hertz.
// It panics if freqHz is not positive, since a zero-frequency domain can
// never make progress and indicates a configuration error.
func NewClock(freqHz float64) Clock {
	if freqHz <= 0 || math.IsNaN(freqHz) || math.IsInf(freqHz, 0) {
		panic(fmt.Sprintf("sim: invalid clock frequency %v Hz", freqHz))
	}
	return Clock{freqHz: freqHz}
}

// MHz is a convenience constructor for megahertz clock domains
// (the unit used by the paper's Table III synthesis reports).
func MHz(f float64) Clock { return NewClock(f * 1e6) }

// Period returns the duration of one cycle, rounded to the nearest
// picosecond.
func (c Clock) Period() Time {
	return Time(float64(Second)/c.freqHz + 0.5)
}

// Cycles returns the duration of n cycles. Computed in floating point from
// the frequency (not by multiplying the rounded period) so long intervals do
// not accumulate rounding error.
func (c Clock) Cycles(n uint64) Time {
	d := float64(n) / c.freqHz * float64(Second)
	if d >= float64(math.MaxInt64) {
		return MaxTime
	}
	return Time(d + 0.5)
}
