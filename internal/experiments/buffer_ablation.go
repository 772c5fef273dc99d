package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/fpga"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// BufferAblationCell is one point of the near-storage DRAM-buffer sweep.
type BufferAblationCell struct {
	HitRatio float64
	Runtime  sim.Time
	EnergyJ  float64
	SSDJ     float64
}

// BufferAblationResult quantifies §II-C's claim that the near-storage
// accelerator "requires a small dedicated DRAM buffer to act as a cache
// for accelerator parameters, to limit disk accesses and exploit the
// parameters' reuse ratio": the feature-extraction stage is run on a
// near-storage accelerator with the parameter buffer's hit ratio swept
// from always-hit (the 1 GB buffer holds the compressed model) down to
// no-buffer (every parameter read falls through to flash).
type BufferAblationResult struct {
	Cells []*BufferAblationCell
}

// bufferHitRatios is the sweep axis, from always-hit down to no-buffer.
func bufferHitRatios() []float64 { return []float64{1.0, 0.75, 0.5, 0.25, 0.0} }

// bufferCell runs the FE stage on one private near-storage platform with
// the given parameter-buffer hit ratio. Each cell owns its own engine and
// meter, so cells are independent runs.
func bufferCell(m workload.Model, hit float64) (*BufferAblationCell, error) {
	eng := sim.NewEngine()
	meter := energy.NewMeter(energy.DefaultCosts())
	cfg := config.Default().WithInstances(0, 0, 1)
	// Parameter gathers are page-granular: without the buffer they
	// hammer the flash IOPS limit.
	cfg.Storage.GatherGrainBytes = cfg.Storage.PageBytes
	plat, err := accel.NewPlatform(eng, cfg, meter)
	if err != nil {
		return nil, err
	}
	a, err := plat.NewAccelerator(accel.NearStorage, 0)
	if err != nil {
		return nil, err
	}
	a.BufferHitRatio = hit
	kernel, err := fpga.NewRegistry().Lookup("CNN-ZCU9")
	if err != nil {
		return nil, err
	}
	var last sim.Time
	for img := 0; img < m.BatchSize; img++ {
		// Each image re-streams the full uncompressed parameter set
		// (the buffer exists precisely because this reuse is heavy).
		done, err := a.Execute(&accel.Task{
			Name: fmt.Sprintf("fe%d", img), Stage: workload.StageFE, Kernel: kernel,
			MACs:    m.FeatureMACsPerImage(),
			Bytes:   m.CNN.ParamBytes(),
			Source:  accel.SourceDeviceDRAM,
			Pattern: storage.RandomPages,
		})
		if err != nil {
			return nil, err
		}
		eng.RunUntil(done)
		last = done
	}
	return &BufferAblationCell{
		HitRatio: hit,
		Runtime:  last,
		EnergyJ:  meter.Total(),
		SSDJ:     meter.Component(energy.SSD),
	}, nil
}

// AblationNSBuffer runs the sweep, one hit ratio per parallel run.
func AblationNSBuffer(m workload.Model, opts ...Option) (*BufferAblationResult, error) {
	ratios := bufferHitRatios()
	cells, err := mapRuns(buildOptions(opts), ratios,
		func(i int) string { return fmt.Sprintf("nsbuffer hit=%.2f", ratios[i]) },
		func(hit float64) (*BufferAblationCell, error) { return bufferCell(m, hit) })
	if err != nil {
		return nil, err
	}
	return &BufferAblationResult{Cells: cells}, nil
}

// Table renders the sweep.
func (r *BufferAblationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation — near-storage DRAM buffer hit ratio (FE stage, 1 instance)",
		Columns: []string{"Buffer hit", "Runtime ms", "Energy J", "SSD J"},
	}
	for _, c := range r.Cells {
		t.AddRow(
			fmt.Sprintf("%.0f%%", c.HitRatio*100),
			report.F(c.Runtime.Milliseconds(), 1),
			report.F(c.EnergyJ, 2),
			report.F(c.SSDJ, 2),
		)
	}
	t.AddNote("§II-C: the private buffer exists to limit disk accesses and exploit parameter reuse")
	return t
}
