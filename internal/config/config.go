// Package config defines the experimental system configuration of the ReACH
// compute hierarchy — the Go encoding of the paper's Table II ("Experimental
// setup of the compute hierarchy system") plus the tunables the evaluation
// sweeps over (number of near-memory and near-storage accelerator
// instances).
package config

import (
	"encoding/json"
	"fmt"
	"os"
)

// Byte-size units.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// GBps is the bandwidth unit in bytes/second.
const GBps = 1e9

// CPUConfig models the host processor (Table II: one x86-64 OoO core at
// 2 GHz, 8-wide issue, 32 KB L1, 2 MB shared L2). The CPU is nearly idle in
// the evaluated workload (it only submits jobs to the GAM), so only the
// parameters that affect job submission latency and the cache hierarchy
// matter.
type CPUConfig struct {
	FreqMHz     float64 `json:"freq_mhz"`
	IssueWidth  int     `json:"issue_width"`
	L1Bytes     int64   `json:"l1_bytes"`
	SharedL2    int64   `json:"shared_l2_bytes"`
	L2Assoc     int     `json:"l2_assoc"`
	L2LineBytes int     `json:"l2_line_bytes"`
}

// MemoryConfig models the main-memory system (Table II: 2 memory
// controllers with 64/64-entry read/write queues, FR-FCFS scheduling;
// 8 DDR4 DIMMs, of which 4 serve near-memory accelerators and 4 serve the
// CPU and the on-chip accelerator).
type MemoryConfig struct {
	Controllers     int     `json:"controllers"`
	ReadQueueDepth  int     `json:"read_queue_depth"`
	WriteQueueDepth int     `json:"write_queue_depth"`
	HostDIMMs       int     `json:"host_dimms"`     // reserved for CPU + on-chip acc
	NearMemDIMMs    int     `json:"near_mem_dimms"` // paired with AIM modules
	DIMMBytes       int64   `json:"dimm_bytes"`
	ChannelGBps     float64 `json:"channel_gbps"`      // DDR4-2400 peak per channel
	StreamEfficieny float64 `json:"stream_efficiency"` // sequential-access FR-FCFS efficiency
	RandomEfficieny float64 `json:"random_efficiency"` // random-access efficiency
	// NearMemGBps is the bandwidth each AIM module sees from its attached
	// DIMM (Table II: 18 GB/s to DDR4).
	NearMemGBps float64 `json:"near_mem_gbps"`
	// AIMBusGBps is the inter-DIMM accelerator bus bandwidth.
	AIMBusGBps float64 `json:"aimbus_gbps"`
}

// StorageConfig models the storage system (Table II: 4 NVMe SSDs attached
// via PCIe Gen3 x16; near-storage accelerators see 12 GB/s effective to
// their SSD).
type StorageConfig struct {
	SSDs int `json:"ssds"`
	// HostPCIeGBps is the effective host-side IO bandwidth shared by all
	// SSDs (16 GB/s raw Gen3 x16, ~12 GB/s after IO-stack inefficiency [6]).
	HostPCIeGBps    float64 `json:"host_pcie_gbps"`
	HostPCIeRawGBps float64 `json:"host_pcie_raw_gbps"`
	// DeviceGBps is the effective bandwidth a near-storage accelerator sees
	// from its attached SSD over the local PCIe link (Table II: 12 GB/s).
	DeviceGBps float64 `json:"device_gbps"`
	// FlashChannels is the number of internal NVM channels per SSD.
	FlashChannels int `json:"flash_channels"`
	// PageBytes is the flash read granularity.
	PageBytes int64 `json:"page_bytes"`
	// ReadLatencyUS is the device-internal page read latency (microseconds).
	ReadLatencyUS float64 `json:"read_latency_us"`
	// RandomIOPS caps 4K-page random read operations per second per SSD.
	RandomIOPS float64 `json:"random_iops"`
	// GatherGrainBytes is the stripe size of candidate-gather reads.
	GatherGrainBytes int64 `json:"gather_grain_bytes"`
	// HostGatherEff derates the effective host IO bandwidth for scattered
	// gather reads (per-stripe NVMe commands through the IO stack).
	HostGatherEff float64 `json:"host_gather_eff"`
	// NSBufferBytes is the near-storage accelerator's private DRAM buffer
	// (Table II: 1 GB), used to cache accelerator parameters.
	NSBufferBytes int64 `json:"ns_buffer_bytes"`
}

// OnChipConfig models the on-chip accelerator's integration (Table II:
// Virtex UltraScale+ with 100 GB/s to the shared cache, coherent
// interconnect, TLB + page-table walkers).
type OnChipConfig struct {
	NoCGBps float64 `json:"noc_gbps"`
	// CachePollutionFactor derates effective streaming bandwidth when a
	// streaming working set far exceeds the LLC: the accelerator contends
	// with its own evictions on the shared cache (paper §IV-B).
	CachePollutionFactor float64 `json:"cache_pollution_factor"`
	// TLBMissLatencyNS and TLBMissRate model the address-translation cost
	// of the unified-address-space support [14].
	TLBMissLatencyNS float64 `json:"tlb_miss_latency_ns"`
	TLBMissRate      float64 `json:"tlb_miss_rate"`
}

// GAMConfig models the global accelerator manager's overheads (§II-D).
type GAMConfig struct {
	// CommandLatencyNS is the latency of one ACC command packet from GAM to
	// a device (and of a status request/response leg).
	CommandLatencyNS float64 `json:"command_latency_ns"`
	// StatusSlackFraction: when a status poll finds a task unfinished, the
	// device reports a new wait estimate of (remaining × (1+slack)). Models
	// the estimated-wait-time refresh in the progress table.
	StatusSlackFraction float64 `json:"status_slack_fraction"`
	// CrossJobPipelining enables dispatching tasks of job N+1 before all
	// tasks of job N finish when no dependency exists (§II-D). Disabling it
	// is an ablation.
	CrossJobPipelining bool `json:"cross_job_pipelining"`
}

// InstanceConfig selects how many accelerator modules exist at each level
// for a given experiment. The paper's default deployment is 1 on-chip,
// 4 near-memory (one per NM DIMM) and 4 near-storage (one per SSD); the
// per-stage sweeps (Figs. 9-11) scale NM/NS from 1 to 16.
type InstanceConfig struct {
	OnChip      int `json:"on_chip"`
	NearMemory  int `json:"near_memory"`
	NearStorage int `json:"near_storage"`
}

// SystemConfig is the complete hardware description consumed by the
// simulator.
type SystemConfig struct {
	CPU       CPUConfig      `json:"cpu"`
	Memory    MemoryConfig   `json:"memory"`
	Storage   StorageConfig  `json:"storage"`
	OnChip    OnChipConfig   `json:"on_chip"`
	GAM       GAMConfig      `json:"gam"`
	Instances InstanceConfig `json:"instances"`
}

// Default returns the paper's Table II configuration.
func Default() SystemConfig {
	return SystemConfig{
		CPU: CPUConfig{
			FreqMHz:     2000,
			IssueWidth:  8,
			L1Bytes:     32 * KiB,
			SharedL2:    2 * MiB,
			L2Assoc:     16,
			L2LineBytes: 64,
		},
		Memory: MemoryConfig{
			Controllers:     2,
			ReadQueueDepth:  64,
			WriteQueueDepth: 64,
			HostDIMMs:       4,
			NearMemDIMMs:    4,
			DIMMBytes:       16 * GiB,
			ChannelGBps:     19.2, // DDR4-2400
			StreamEfficieny: 0.82,
			RandomEfficieny: 0.35,
			NearMemGBps:     18.0,
			AIMBusGBps:      12.8,
		},
		Storage: StorageConfig{
			SSDs:             4,
			HostPCIeGBps:     12.0,
			HostPCIeRawGBps:  16.0,
			DeviceGBps:       12.0,
			FlashChannels:    16,
			PageBytes:        4 * KiB,
			ReadLatencyUS:    80,
			RandomIOPS:       800_000,
			GatherGrainBytes: 64 * KiB,
			HostGatherEff:    0.75,
			NSBufferBytes:    1 * GiB,
		},
		OnChip: OnChipConfig{
			NoCGBps:              100.0,
			CachePollutionFactor: 0.70,
			TLBMissLatencyNS:     120,
			TLBMissRate:          0.001,
		},
		GAM: GAMConfig{
			CommandLatencyNS:    500,
			StatusSlackFraction: 0.10,
			CrossJobPipelining:  true,
		},
		Instances: InstanceConfig{
			OnChip:      1,
			NearMemory:  4,
			NearStorage: 4,
		},
	}
}

// Validate checks internal consistency and reports the first problem found.
func (c *SystemConfig) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{c.CPU.FreqMHz > 0, "cpu.freq_mhz must be positive"},
		{c.CPU.SharedL2 > 0, "cpu.shared_l2_bytes must be positive"},
		{c.CPU.L2LineBytes > 0 && c.CPU.L2LineBytes&(c.CPU.L2LineBytes-1) == 0,
			"cpu.l2_line_bytes must be a positive power of two"},
		{c.CPU.L2Assoc > 0, "cpu.l2_assoc must be positive"},
		{c.Memory.Controllers > 0, "memory.controllers must be positive"},
		{c.Memory.HostDIMMs > 0, "memory.host_dimms must be positive"},
		{c.Memory.NearMemDIMMs >= 0, "memory.near_mem_dimms must be non-negative"},
		{c.Memory.ChannelGBps > 0, "memory.channel_gbps must be positive"},
		{c.Memory.StreamEfficieny > 0 && c.Memory.StreamEfficieny <= 1,
			"memory.stream_efficiency must be in (0,1]"},
		{c.Memory.RandomEfficieny > 0 && c.Memory.RandomEfficieny <= 1,
			"memory.random_efficiency must be in (0,1]"},
		{c.Memory.NearMemGBps > 0, "memory.near_mem_gbps must be positive"},
		{c.Memory.AIMBusGBps > 0, "memory.aimbus_gbps must be positive"},
		{c.Storage.SSDs > 0, "storage.ssds must be positive"},
		{c.Storage.HostPCIeGBps > 0, "storage.host_pcie_gbps must be positive"},
		{c.Storage.HostPCIeGBps <= c.Storage.HostPCIeRawGBps,
			"storage.host_pcie_gbps cannot exceed raw link bandwidth"},
		{c.Storage.DeviceGBps > 0, "storage.device_gbps must be positive"},
		{c.Storage.PageBytes > 0, "storage.page_bytes must be positive"},
		{c.Storage.RandomIOPS > 0, "storage.random_iops must be positive"},
		{c.Storage.GatherGrainBytes > 0, "storage.gather_grain_bytes must be positive"},
		{c.Storage.HostGatherEff > 0 && c.Storage.HostGatherEff <= 1,
			"storage.host_gather_eff must be in (0,1]"},
		{c.OnChip.NoCGBps > 0, "on_chip.noc_gbps must be positive"},
		{c.OnChip.CachePollutionFactor > 0 && c.OnChip.CachePollutionFactor <= 1,
			"on_chip.cache_pollution_factor must be in (0,1]"},
		{c.GAM.CommandLatencyNS >= 0, "gam.command_latency_ns must be non-negative"},
		{c.Instances.OnChip >= 0, "instances.on_chip must be non-negative"},
		{c.Instances.NearMemory >= 0, "instances.near_memory must be non-negative"},
		{c.Instances.NearStorage >= 0, "instances.near_storage must be non-negative"},
		{c.Instances.OnChip+c.Instances.NearMemory+c.Instances.NearStorage > 0,
			"at least one accelerator instance is required"},
	}
	for _, chk := range checks {
		if !chk.ok {
			return fmt.Errorf("config: %s", chk.msg)
		}
	}
	// The LLC geometry must decode like a set-associative cache: whole
	// sets of l2_assoc lines and a power-of-two set count. The node
	// models the LLC in bulk, so this only rejects malformed input.
	lines := c.CPU.SharedL2 / int64(c.CPU.L2LineBytes)
	if lines == 0 || lines%int64(c.CPU.L2Assoc) != 0 {
		return fmt.Errorf("config: cpu.shared_l2_bytes %d does not divide into whole %d-way sets of %d-byte lines",
			c.CPU.SharedL2, c.CPU.L2Assoc, c.CPU.L2LineBytes)
	}
	if sets := lines / int64(c.CPU.L2Assoc); sets&(sets-1) != 0 {
		return fmt.Errorf("config: cpu.shared_l2_bytes %d gives %d sets, not a power of two", c.CPU.SharedL2, sets)
	}
	return nil
}

// WithInstances returns a copy of c with the instance counts replaced —
// the knob the per-stage sweeps turn.
func (c SystemConfig) WithInstances(onChip, nearMem, nearStore int) SystemConfig {
	c.Instances = InstanceConfig{OnChip: onChip, NearMemory: nearMem, NearStorage: nearStore}
	// Sweeps beyond the default DIMM/SSD population grow the population to
	// match: Figs. 9-11 pair every instance with its own DIMM or SSD.
	if nearMem > c.Memory.NearMemDIMMs {
		c.Memory.NearMemDIMMs = nearMem
	}
	if nearStore > c.Storage.SSDs {
		c.Storage.SSDs = nearStore
	}
	return c
}

// Load reads a SystemConfig from a JSON file.
func Load(path string) (SystemConfig, error) {
	var c SystemConfig
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("config: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("config: %s: %w", path, err)
	}
	return c, nil
}

// Save writes the configuration as indented JSON.
func (c SystemConfig) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
