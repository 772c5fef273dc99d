package fpga

import (
	"fmt"

	"repro/internal/sim"
)

// Fabric is one physical programmable-logic instance: the thing a kernel
// template gets loaded onto. It tracks the loaded bitstream, the
// reconfiguration count and busy accounting for the energy model. A
// reconfiguration takes no simulated time: the paper's evaluation does not
// account for the partial reprogramming delay, which today's devices keep
// under a millisecond (§VI-A).
type Fabric struct {
	eng    *sim.Engine
	name   string
	device *Device

	loaded    *Template
	reconfigs uint64

	busy      sim.Time // accumulated kernel-active time
	busyUntil sim.Time
	tasks     uint64
}

// NewFabric creates a fabric of the given device.
func NewFabric(eng *sim.Engine, name string, device *Device) *Fabric {
	if device == nil {
		panic("fpga: fabric without device")
	}
	return &Fabric{eng: eng, name: name, device: device}
}

// Name reports the fabric's diagnostic name.
func (f *Fabric) Name() string { return f.name }

// Device reports the part this fabric is.
func (f *Fabric) Device() *Device { return f.device }

// Loaded reports the currently configured template (nil when blank).
func (f *Fabric) Loaded() *Template { return f.loaded }

// Load configures template t, returning the time the fabric is ready.
// Loading the already-resident template is free; loading a template
// synthesised for a different part is an error.
func (f *Fabric) Load(t *Template) (sim.Time, error) {
	if t == nil {
		return 0, fmt.Errorf("fpga: %s: loading nil template", f.name)
	}
	if t.Device != f.device {
		return 0, fmt.Errorf("fpga: %s: template %s is synthesised for %s, fabric is %s",
			f.name, t.Name, t.Device.Name, f.device.Name)
	}
	now := f.eng.Now()
	if f.loaded == t {
		return now, nil
	}
	f.loaded = t
	f.reconfigs++
	return now, nil
}

// Reconfigs reports how many bitstream loads occurred.
func (f *Fabric) Reconfigs() uint64 { return f.reconfigs }

// Busy reports accumulated active time (for energy accounting).
func (f *Fabric) Busy() sim.Time { return f.busy }

// BusyUntil reports when the fabric finishes its current task (zero or past
// when idle).
func (f *Fabric) BusyUntil() sim.Time { return f.busyUntil }

// Idle reports whether the fabric can accept a task now.
func (f *Fabric) Idle() bool { return f.busyUntil <= f.eng.Now() }

// Occupy marks the fabric busy for d starting at the later of now and its
// current availability, returning the completion time. The accelerator
// models call this once per task with the task's modelled duration.
func (f *Fabric) Occupy(d sim.Time) sim.Time {
	if d < 0 {
		panic("fpga: negative occupancy")
	}
	start := f.eng.Now()
	if f.busyUntil > start {
		start = f.busyUntil
	}
	end := start + d
	f.busyUntil = end
	f.busy += d
	f.tasks++
	return end
}

// Tasks reports how many tasks the fabric executed.
func (f *Fabric) Tasks() uint64 { return f.tasks }
