package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTableII(t *testing.T) {
	c := Default()
	if c.CPU.FreqMHz != 2000 {
		t.Errorf("CPU freq = %v MHz, Table II says 2 GHz", c.CPU.FreqMHz)
	}
	if c.CPU.SharedL2 != 2*MiB {
		t.Errorf("shared L2 = %d, Table II says 2MB", c.CPU.SharedL2)
	}
	if c.Memory.Controllers != 2 {
		t.Errorf("MCs = %d, Table II says 2", c.Memory.Controllers)
	}
	if got := c.Memory.HostDIMMs + c.Memory.NearMemDIMMs; got != 8 {
		t.Errorf("total DIMMs = %d, Table II says 8", got)
	}
	if c.Memory.NearMemGBps != 18.0 {
		t.Errorf("near-mem bandwidth = %v, Table II says 18 GB/s", c.Memory.NearMemGBps)
	}
	if c.Storage.SSDs != 4 {
		t.Errorf("SSDs = %d, Table II says 4", c.Storage.SSDs)
	}
	if c.Storage.DeviceGBps != 12.0 {
		t.Errorf("near-storage device bandwidth = %v, Table II says 12 GB/s", c.Storage.DeviceGBps)
	}
	if c.OnChip.NoCGBps != 100.0 {
		t.Errorf("on-chip NoC bandwidth = %v, Table II says 100 GB/s", c.OnChip.NoCGBps)
	}
	if c.Storage.NSBufferBytes != GiB {
		t.Errorf("NS DRAM buffer = %d, Table II says 1GB", c.Storage.NSBufferBytes)
	}
}

func TestValidateCatchesBadValues(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SystemConfig)
		want   string
	}{
		{"zero freq", func(c *SystemConfig) { c.CPU.FreqMHz = 0 }, "freq_mhz"},
		{"bad line", func(c *SystemConfig) { c.CPU.L2LineBytes = 48 }, "power of two"},
		{"l2 not whole sets", func(c *SystemConfig) { c.CPU.L2Assoc = 24 }, "whole 24-way sets"},
		{"l2 under one line", func(c *SystemConfig) { c.CPU.SharedL2 = 32 }, "whole 16-way sets"},
		{"l2 sets not pow2", func(c *SystemConfig) { c.CPU.SharedL2 = 3 * MiB }, "3072 sets, not a power of two"},
		{"no MCs", func(c *SystemConfig) { c.Memory.Controllers = 0 }, "controllers"},
		{"bad efficiency", func(c *SystemConfig) { c.Memory.StreamEfficieny = 1.5 }, "stream_efficiency"},
		{"pcie exceeds raw", func(c *SystemConfig) { c.Storage.HostPCIeGBps = 99 }, "raw link"},
		{"no instances", func(c *SystemConfig) { c.Instances = InstanceConfig{} }, "at least one"},
		{"neg latency", func(c *SystemConfig) { c.GAM.CommandLatencyNS = -1 }, "command_latency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("Validate accepted bad config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestWithInstancesGrowsPopulation(t *testing.T) {
	c := Default().WithInstances(0, 16, 16)
	if c.Memory.NearMemDIMMs != 16 {
		t.Errorf("NearMemDIMMs = %d, want grown to 16", c.Memory.NearMemDIMMs)
	}
	if c.Storage.SSDs != 16 {
		t.Errorf("SSDs = %d, want grown to 16", c.Storage.SSDs)
	}
	// Shrinking instances must not shrink the population below default.
	c2 := Default().WithInstances(1, 1, 1)
	if c2.Memory.NearMemDIMMs != 4 || c2.Storage.SSDs != 4 {
		t.Errorf("population shrank: %d DIMMs, %d SSDs", c2.Memory.NearMemDIMMs, c2.Storage.SSDs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.json")
	c := Default().WithInstances(1, 8, 2)
	if err := c.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got != c {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	data := `{"cpu":{"freq_mhz":2000,"l1_bytes":32768,"shared_l2_bytes":2097152,"l2_assoc":16,"l2_line_bytes":64}}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted config with zero memory controllers")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("Load accepted missing file")
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted malformed JSON")
	}
}
