package storage

import (
	"fmt"

	"repro/internal/sim"
)

// This file models the NVMe host interface at command granularity: paired
// submission/completion queues, doorbell writes, command processing and
// per-command data transfers. It is the micro-model behind the bulk
// parameters used elsewhere in the package — the "IO software stack
// inefficiency" of [6] (INSIDER) that turns a 16 GB/s PCIe Gen3 x16 link
// into ~12 GB/s of effective host bandwidth, and the further derating of
// scattered gathers. Tests derive those bulk efficiencies from this model
// and check they bracket the configured constants.

// QueuePairConfig parameterises one NVMe submission/completion queue pair.
type QueuePairConfig struct {
	// Depth is the queue depth (outstanding commands).
	Depth int
	// SubmissionOverhead is host-side per-command software cost (driver,
	// block layer, doorbell write).
	SubmissionOverhead sim.Time
	// CompletionOverhead is host-side per-completion cost (interrupt or
	// polling, completion-queue processing).
	CompletionOverhead sim.Time
	// CommandLatency is the device-side command decode + setup time.
	CommandLatency sim.Time
	// LinkBytesPerSec is the PCIe payload bandwidth for this queue pair.
	LinkBytesPerSec float64
}

// DefaultQueuePairConfig reflects a tuned Linux NVMe path on Gen3 x16.
func DefaultQueuePairConfig() QueuePairConfig {
	return QueuePairConfig{
		Depth:              32,
		SubmissionOverhead: 3 * sim.Microsecond,
		CompletionOverhead: 2 * sim.Microsecond,
		CommandLatency:     8 * sim.Microsecond,
		LinkBytesPerSec:    16e9,
	}
}

// QueuePair simulates command flow through one NVMe queue pair. Its three
// contended resources are shared-layer primitives registered in the central
// stats registry: the PCIe data link ("nvme.<name>.link"), the host CPU
// serialising submission/completion work ("nvme.<name>.cpu"), and the
// submission-queue depth window ("nvme.<name>.sq").
type QueuePair struct {
	eng  *sim.Engine
	cfg  QueuePairConfig
	link sim.Connection

	// host CPU is a serial resource for submission/completion work.
	hostCPU sim.Connection

	// sq is the queue-depth window: admission of a new command when the
	// queue is full waits for the oldest outstanding completion.
	sq *sim.Window

	completed uint64
	bytes     uint64
	lastDone  sim.Time
}

// NewQueuePair creates a queue pair on eng, registered under name.
func NewQueuePair(eng *sim.Engine, name string, cfg QueuePairConfig) (*QueuePair, error) {
	if cfg.Depth <= 0 {
		return nil, fmt.Errorf("storage: queue depth must be positive")
	}
	if cfg.LinkBytesPerSec <= 0 {
		return nil, fmt.Errorf("storage: link bandwidth must be positive")
	}
	return &QueuePair{
		eng:  eng,
		cfg:  cfg,
		link: sim.NewLink(eng, "nvme."+name+".link", cfg.LinkBytesPerSec, 500*sim.Nanosecond),
		// Host submission/completion work serialises on one core; model
		// it as a unit-bandwidth link occupied for the overhead duration.
		hostCPU: sim.NewLink(eng, "nvme."+name+".cpu", 1, 0),
		sq:      sim.NewWindow(eng, "nvme."+name+".sq", cfg.Depth),
	}, nil
}

// RunReads pushes `commands` fixed-size reads through the queue pair and
// returns the completion time of the last one. The host keeps the queue as
// full as the configured depth allows; the depth limit itself is the shared
// sim.Window, which accounts full-queue admission waits.
func (qp *QueuePair) RunReads(commands int, bytesPer int64) sim.Time {
	if commands <= 0 {
		return qp.eng.Now()
	}
	issueTime := qp.eng.Now()
	for i := 0; i < commands; i++ {
		// Respect queue depth: wait for the oldest completion.
		issueTime = qp.sq.Admit(issueTime)
		// Host submission and completion work serialise on one CPU; both
		// are charged per command (the completion half is processed while
		// later commands stream, but still consumes the same core).
		subDone := qp.hostCPU.Occupy(qp.cfg.SubmissionOverhead+qp.cfg.CompletionOverhead, 1)
		if subDone > issueTime {
			issueTime = subDone
		}
		// Device processes the command, then the data crosses the link.
		ready := issueTime + qp.cfg.CommandLatency
		xferDone := qp.link.TransferAt(maxQP(ready, qp.eng.Now()), bytesPer)
		// Completion processing back on the host CPU.
		compDone := xferDone + qp.cfg.CompletionOverhead
		qp.sq.Complete(compDone)
		qp.completed++
		qp.bytes += uint64(bytesPer)
		if compDone > qp.lastDone {
			qp.lastDone = compDone
		}
	}
	return qp.lastDone
}

// EffectiveBandwidth reports bytes moved over elapsed time for the whole
// run (0 before any command).
func (qp *QueuePair) EffectiveBandwidth() float64 {
	if qp.lastDone == 0 {
		return 0
	}
	return float64(qp.bytes) / qp.lastDone.Seconds()
}

// Completed reports finished commands.
func (qp *QueuePair) Completed() uint64 { return qp.completed }

func maxQP(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
