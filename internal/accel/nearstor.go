package accel

import (
	"fmt"

	"repro/internal/fpga"
	"repro/internal/sim"
	"repro/internal/storage"
)

// NearStorAccel is one near-storage accelerator (paper §II-C, Fig. 4): an
// embedded Zynq fabric attached to a single NVMe SSD via a local PCIe
// link, with a private 1 GB DRAM buffer that caches kernel parameters to
// limit flash accesses and exploit parameter reuse.
type NearStorAccel struct {
	p    *Platform
	name string
	fab  *fpga.Fabric
	ssd  int // index into the storage array / DevBuffers

	// BufferHitRatio is the fraction of SourceDeviceDRAM traffic served by
	// the private buffer (the remainder falls through to flash). Parameter
	// working sets that fit the 1 GB buffer hit ~always.
	BufferHitRatio float64
}

// NewNearStor attaches a new near-storage accelerator to SSD i.
func (p *Platform) NewNearStor(i int) (*NearStorAccel, error) {
	if i < 0 || i >= p.Storage.Len() {
		return nil, fmt.Errorf("accel: no SSD %d (have %d)", i, p.Storage.Len())
	}
	name := p.id(NearStorage)
	return &NearStorAccel{
		p:              p,
		name:           name,
		fab:            fpga.NewFabric(p.Eng, name, fpga.ZynqZCU9),
		ssd:            i,
		BufferHitRatio: 1.0,
	}, nil
}

// Name reports the instance name.
func (a *NearStorAccel) Name() string { return a.name }

// Level reports NearStorage.
func (a *NearStorAccel) Level() Level { return NearStorage }

// Fabric exposes the device fabric.
func (a *NearStorAccel) Fabric() *fpga.Fabric { return a.fab }

// SSD reports the attached device index.
func (a *NearStorAccel) SSD() int { return a.ssd }

// BusyUntil reports when the device can accept the next task.
func (a *NearStorAccel) BusyUntil() sim.Time { return a.fab.BusyUntil() }

// Estimate returns the synthesis-report runtime estimate.
func (a *NearStorAccel) Estimate(t *Task) sim.Time { return estimate(t) }

// Execute runs one task on the near-storage accelerator.
func (a *NearStorAccel) Execute(t *Task) (sim.Time, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if !a.fab.Idle() {
		return 0, fmt.Errorf("accel: %s busy until %v", a.name, a.fab.BusyUntil())
	}
	now := a.p.Eng.Now()
	meter := a.p.Meter
	buf := a.p.DevBuffers[a.ssd]

	supplyDone := now
	switch t.Source {
	case SourceSPM:
		// Resident in the fabric's scratchpad.
	case SourceSSD:
		// The whole point of the level: the local FPGA-SSD link exposes
		// the device's internal bandwidth without touching the host IO
		// interface, so aggregate bandwidth scales with the SSD count.
		supplyDone = a.p.Storage.DeviceRead(a.ssd, t.Bytes, t.Pattern)
		meter.SSDTraffic(t.Stage, t.Bytes)
		meter.PCIeTraffic(t.Stage, t.Bytes) // local FPGA-SSD link
	case SourceDeviceDRAM:
		hit := int64(float64(t.Bytes) * a.BufferHitRatio)
		miss := t.Bytes - hit
		if hit > 0 {
			if t.Pattern == storage.RandomPages {
				supplyDone = buf.Random(hit)
			} else {
				supplyDone = buf.Stream(hit)
			}
			meter.DRAMTraffic(t.Stage, hit)
		}
		if miss > 0 {
			// Fall through to flash, then fill the buffer.
			if d := a.p.Storage.DeviceRead(a.ssd, miss, t.Pattern); d > supplyDone {
				supplyDone = d
			}
			buf.Stream(miss)
			meter.SSDTraffic(t.Stage, miss)
			meter.PCIeTraffic(t.Stage, miss)
			meter.DRAMTraffic(t.Stage, miss)
		}
	case SourceHostDRAM:
		// Host pushes data over the shared host PCIe link into the
		// device buffer; the kernel reads it back from the buffer.
		hostDone := a.p.Storage.HostToDevice(a.ssd, t.Bytes)
		bufDone := buf.Stream(2 * t.Bytes)
		supplyDone = max(hostDone, bufDone)
		meter.DRAMTraffic(t.Stage, 3*t.Bytes) // host read + buffer write/read
		meter.MCTraffic(t.Stage, t.Bytes)
		meter.PCIeTraffic(t.Stage, t.Bytes)
	default:
		return 0, fmt.Errorf("accel: %s cannot stream from %v", a.name, t.Source)
	}

	kernelDur := t.Kernel.Duration(t.MACs, t.Bytes)
	done := now + kernelDur
	if supplyDone > done {
		done = supplyDone
	}
	a.fab.Occupy(done - now)
	meter.AddActive(t.Stage, t.Kernel.Power(true), done-now)

	if t.OutputBytes > 0 {
		buf.Stream(t.OutputBytes)
		meter.DRAMTraffic(t.Stage, t.OutputBytes)
	}
	return done, nil
}
