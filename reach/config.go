package reach

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/accel"
	"repro/internal/fpga"
	"repro/internal/storage"
)

// Arg is anything bindable to an accelerator argument slot: a *Buffer or a
// *Stream.
type Arg interface {
	argLabel() string
}

// Buffer is a fixed data region pinned at one compute level (Listing 1's
// CreateFixedBuffer): database shards on near-storage devices, centroid
// partitions in near-memory DIMMs, model parameters on chip. Fixed buffers
// are where data stays sedentary — the core idea of limiting runtime data
// movement (§III-A).
type Buffer struct {
	Name     string
	Level    Level
	Size     int64
	Instance int // owning instance at the level (-1: replicated/shared)
}

func (b *Buffer) argLabel() string { return "buffer:" + b.Name }

// Stream is a communication buffer between two levels (Listing 1's
// CreateStream): a pair of queues in the source and destination memory
// spaces, duplicated per instance for BroadCast destinations and per
// source for Collect.
type Stream struct {
	Name string
	Src  Level
	Dst  Level
	Type StreamType
	Size int64 // payload bytes per element (one batch's worth)

	producers []*ACC // accelerators writing this stream
}

func (st *Stream) argLabel() string { return "stream:" + st.Name }

// ACC is one registered accelerator (Listing 1's RegisterAcc): an
// accelerator template deployed on a specific physical instance of a
// compute level.
type ACC struct {
	Name     string
	Level    Level
	Template string
	Instance int

	sys  *System
	args []binding // in slot order
	work Work
}

// binding is one bound argument slot.
type binding struct {
	slot int
	arg  Arg
	dir  argDir
}

// argDir records how an argument slot was bound.
type argDir int

const (
	dirAuto argDir = iota // direction inferred from stream endpoints
	dirIn
	dirOut
)

// Work describes the per-invocation workload of an ACC — the quantities
// the simulator's timing model consumes. If StreamBytes is zero it is
// derived from the bound fixed input buffers.
type Work struct {
	// MACs per invocation.
	MACs float64
	// StreamBytes per invocation from the level-local medium.
	StreamBytes int64
	// Random marks page-gather (vs. sequential) access.
	Random bool
	// FromStorage marks the streamed working set as SSD-resident even when
	// the accelerator runs on chip or near memory: the bytes must cross
	// the host IO interface (the rerank-style placement).
	FromStorage bool
	// SPMResident marks the streamed working set as resident in on-fabric
	// SRAM (no movement), e.g. compressed CNN parameters.
	SPMResident bool
	// RemoteFraction is the near-memory fraction fetched over the AIMbus.
	RemoteFraction float64
	// OutputBytes per invocation pushed to the output stream.
	OutputBytes int64
	// Stage labels the invocation's energy attribution (defaults to the
	// template name).
	Stage string
}

// TemplateSpec describes a user-supplied accelerator template — the public
// face of §III-A's "for any new accelerator, once a compute kernel is
// designed and generated for a specific compute level, the bitstream
// alongside a kernel-specific driver ... would be stored as an accelerator
// template".
type TemplateSpec struct {
	// Name registers the template for RegisterAcc lookup.
	Name string
	// Embedded selects the Zynq-class part (near-memory/near-storage);
	// false selects the large Virtex-class on-chip part.
	Embedded bool
	// FreqMHz, PowerW and the utilisation percentages come from the
	// kernel's synthesis report.
	FreqMHz float64
	PowerW  float64
	FF, LUT float64
	DSP     float64
	BRAM    float64
	// MACsPerCycle and StreamBytesPerCycle define the datapath's
	// throughput; II and Depth its pipeline shape.
	MACsPerCycle        float64
	StreamBytesPerCycle float64
	II, Depth           int
}

// RegisterTemplate publishes a custom accelerator template to this
// system's registry.
func (s *System) RegisterTemplate(spec TemplateSpec) error {
	dev := fpga.VirtexVU9P
	if spec.Embedded {
		dev = fpga.ZynqZCU9
	}
	t := &fpga.Template{
		Name:   spec.Name,
		Device: dev,
		Util: fpga.Utilization{
			FF: spec.FF, LUT: spec.LUT, DSP: spec.DSP, BRAM: spec.BRAM,
		},
		FreqMHz:             spec.FreqMHz,
		PowerW:              spec.PowerW,
		PowerNSW:            spec.PowerW,
		MACsPerCycle:        spec.MACsPerCycle,
		StreamBytesPerCycle: spec.StreamBytesPerCycle,
		II:                  spec.II,
		Depth:               spec.Depth,
	}
	return s.sys.Registry().Register(t)
}

// RegisterAcc deploys template t at level l, on the next unused instance
// (round-robin). It fails if the level has no free instances or the
// template is unknown or synthesised for a different part.
func (s *System) RegisterAcc(template string, l Level) (*ACC, error) {
	n := s.sys.InstanceCount(l.internal())
	if n == 0 {
		return nil, fmt.Errorf("reach: no accelerator instances at level %v", l)
	}
	idx := s.nextInstance[l]
	if idx >= n {
		return nil, fmt.Errorf("reach: all %d instances at level %v already registered", n, l)
	}
	a, err := s.RegisterAccAt(template, l, idx)
	if err != nil {
		return nil, err
	}
	s.nextInstance[l] = idx + 1
	return a, nil
}

// RegisterAccAt deploys template t on a specific physical instance. Unlike
// RegisterAcc it permits several logical accelerators to share one fabric:
// their kernels are time-multiplexed through partial reconfiguration (the
// paper's on-chip-only baseline reprograms one FPGA between pipeline
// stages; §VI-A notes the sub-millisecond swap is not charged).
func (s *System) RegisterAccAt(template string, l Level, instance int) (*ACC, error) {
	tpl, err := s.sys.Registry().Lookup(template)
	if err != nil {
		return nil, err
	}
	n := s.sys.InstanceCount(l.internal())
	if instance < 0 || instance >= n {
		return nil, fmt.Errorf("reach: no instance %d at level %v (have %d)", instance, l, n)
	}
	// Device-compatibility check via a trial load.
	inst := s.sys.Accelerators(l.internal())[instance]
	if err := inst.Fabric().Load(tpl); err != nil {
		return nil, err
	}
	a := &ACC{
		Name:     fmt.Sprintf("%s@%s[%d]", template, l, instance),
		Level:    l,
		Template: template,
		Instance: instance,
		sys:      s,
	}
	s.accs = append(s.accs, a)
	return a, nil
}

// CreateFixedBuffer allocates a fixed data region of size bytes at level
// dst (Listing 1). The buffer is assigned to instances round-robin when
// the level has per-instance media; use CreateFixedBufferAt to pin
// explicitly.
func (s *System) CreateFixedBuffer(name string, dst Level, size int64) (*Buffer, error) {
	return s.CreateFixedBufferAt(name, dst, size, -1)
}

// CreateFixedBufferAt is CreateFixedBuffer pinned to an instance.
func (s *System) CreateFixedBufferAt(name string, dst Level, size int64, instance int) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("reach: buffer %q needs positive size", name)
	}
	if instance >= 0 && instance >= s.sys.InstanceCount(dst.internal()) && dst != CPU {
		return nil, fmt.Errorf("reach: buffer %q pinned to %v[%d], only %d instances",
			name, dst, instance, s.sys.InstanceCount(dst.internal()))
	}
	b := &Buffer{Name: name, Level: dst, Size: size, Instance: instance}
	s.buffers = append(s.buffers, b)
	return b, nil
}

// CreateStream creates a communication stream between two levels
// (Listing 1). size is the payload per element.
func (s *System) CreateStream(name string, src, dst Level, typ StreamType, size int64) (*Stream, error) {
	if size <= 0 {
		return nil, fmt.Errorf("reach: stream %q needs positive element size", name)
	}
	st := &Stream{Name: name, Src: src, Dst: dst, Type: typ, Size: size}
	s.streams = append(s.streams, st)
	return st, nil
}

// SetArg binds buffers and streams to the accelerator's argument slots
// (Listing 2's setArgs). Streams whose destination is the ACC's level are
// inputs; streams whose source is the ACC's level are outputs; buffers
// must live at the ACC's level. For a stream whose source and destination
// are the same level the direction is ambiguous — bind it with SetInput or
// SetOutput instead.
func (a *ACC) SetArg(i int, arg Arg) error {
	if st, ok := arg.(*Stream); ok && st.Src == st.Dst {
		return fmt.Errorf("reach: %s arg %d: stream %q is same-level (%v); use SetInput/SetOutput",
			a.Name, i, st.Name, st.Src)
	}
	return a.bind(i, arg, dirAuto)
}

// SetInput binds arg as an input of the accelerator.
func (a *ACC) SetInput(i int, arg Arg) error { return a.bind(i, arg, dirIn) }

// SetOutput binds arg as an output of the accelerator.
func (a *ACC) SetOutput(i int, arg Arg) error { return a.bind(i, arg, dirOut) }

func (a *ACC) bind(i int, arg Arg, dir argDir) error {
	if arg == nil {
		return fmt.Errorf("reach: %s arg %d is nil", a.Name, i)
	}
	at, dup := slices.BinarySearchFunc(a.args, i, func(b binding, slot int) int { return cmp.Compare(b.slot, slot) })
	if dup {
		return fmt.Errorf("reach: %s arg %d bound twice", a.Name, i)
	}
	switch v := arg.(type) {
	case *Buffer:
		if v.Level != a.Level {
			return fmt.Errorf("reach: %s arg %d: buffer %q lives at %v, accelerator at %v",
				a.Name, i, v.Name, v.Level, a.Level)
		}
	case *Stream:
		if v.Src != a.Level && v.Dst != a.Level {
			return fmt.Errorf("reach: %s arg %d: stream %q (%v→%v) does not touch level %v",
				a.Name, i, v.Name, v.Src, v.Dst, a.Level)
		}
		produces := dir == dirOut || (dir == dirAuto && v.Src == a.Level)
		if produces {
			v.producers = append(v.producers, a)
		}
	default:
		return fmt.Errorf("reach: %s arg %d: unsupported argument type %T", a.Name, i, arg)
	}
	a.args = slices.Insert(a.args, at, binding{slot: i, arg: arg, dir: dir})
	return nil
}

// SetWork overrides the per-invocation workload model.
func (a *ACC) SetWork(w Work) { a.work = w }

// inputStreams lists streams bound as inputs.
func (a *ACC) inputStreams() []*Stream {
	var out []*Stream
	for _, b := range a.args {
		st, ok := b.arg.(*Stream)
		if !ok {
			continue
		}
		switch b.dir {
		case dirIn:
			out = append(out, st)
		case dirAuto:
			if st.Dst == a.Level && st.Src != a.Level {
				out = append(out, st)
			}
		}
	}
	return out
}

// outputStream returns the stream bound as output in the lowest slot (nil
// if none).
func (a *ACC) outputStream() *Stream {
	for _, b := range a.args {
		st, ok := b.arg.(*Stream)
		if !ok {
			continue
		}
		switch b.dir {
		case dirOut:
			return st
		case dirAuto:
			if st.Src == a.Level && st.Dst != a.Level {
				return st
			}
		}
	}
	return nil
}

// fixedInputBytes sums bound fixed buffers.
func (a *ACC) fixedInputBytes() int64 {
	var sum int64
	for _, b := range a.args {
		if buf, ok := b.arg.(*Buffer); ok {
			sum += buf.Size
		}
	}
	return sum
}

// taskSource derives the accel.Source of the ACC's streamed input.
func (a *ACC) taskSource() accel.Source {
	if a.work.SPMResident {
		return accel.SourceSPM
	}
	if a.work.FromStorage {
		return accel.SourceSSD
	}
	switch a.Level {
	case OnChip:
		return accel.SourceHostDRAM
	case NearMem:
		return accel.SourceLocalDIMM
	default:
		return accel.SourceSSD
	}
}

func (a *ACC) pattern() storage.AccessPattern {
	if a.work.Random {
		return storage.RandomPages
	}
	return storage.Sequential
}
