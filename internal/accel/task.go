package accel

import (
	"fmt"

	"repro/internal/fpga"
	"repro/internal/storage"
)

// Source identifies where a task's streamed input resides before the task
// runs — the data placement that determines which links the transfer
// crosses and therefore where the energy goes.
type Source int

const (
	// SourceSPM: data resident in the accelerator's on-fabric scratchpad
	// (e.g. the compressed CNN parameters in on-chip SRAM). No movement.
	SourceSPM Source = iota
	// SourceHostDRAM: data in the host-side DIMMs (cacheline interleaved).
	SourceHostDRAM
	// SourceLocalDIMM: data in a near-memory accelerator's attached DIMM.
	SourceLocalDIMM
	// SourceRemoteDIMM: data in sibling AIM DIMMs, fetched via the AIMbus.
	SourceRemoteDIMM
	// SourceSSD: data on the SSD array.
	SourceSSD
	// SourceDeviceDRAM: data in a near-storage accelerator's private
	// buffer (cached parameters, §II-C).
	SourceDeviceDRAM
)

func (s Source) String() string {
	switch s {
	case SourceSPM:
		return "spm"
	case SourceHostDRAM:
		return "host-dram"
	case SourceLocalDIMM:
		return "local-dimm"
	case SourceRemoteDIMM:
		return "remote-dimm"
	case SourceSSD:
		return "ssd"
	case SourceDeviceDRAM:
		return "device-dram"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Task is one accelerator work item as GAM dispatches it: a kernel, a work
// volume, and the placement of its streamed input.
type Task struct {
	Name  string
	Stage string // energy-attribution label (pipeline stage)

	Kernel *fpga.Template
	// MACs is the task's arithmetic volume.
	MACs float64
	// Bytes is the input volume streamed from Source.
	Bytes int64
	// Source is where the streamed input lives.
	Source Source
	// Pattern distinguishes sequential streams from page gathers when the
	// source is storage.
	Pattern storage.AccessPattern
	// RemoteFraction is, for near-memory tasks, the fraction of Bytes on
	// sibling DIMMs (crossing the AIMbus). Zero for fully local data.
	RemoteFraction float64
	// OutputBytes is the result volume written back to the level-local
	// medium (results to streams are moved separately by GAM).
	OutputBytes int64
}

// Validate checks the task is self-consistent.
func (t *Task) Validate() error {
	switch {
	case t.Kernel == nil:
		return fmt.Errorf("accel: task %s has no kernel", t.Name)
	case t.MACs < 0 || t.Bytes < 0 || t.OutputBytes < 0:
		return fmt.Errorf("accel: task %s has negative work", t.Name)
	case t.RemoteFraction < 0 || t.RemoteFraction > 1:
		return fmt.Errorf("accel: task %s remote fraction %v out of range", t.Name, t.RemoteFraction)
	}
	return nil
}
