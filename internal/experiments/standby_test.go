package experiments

import (
	"context"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestStandbyIsPowerTimesMakespan checks the standby term of the energy
// law on Figs. 8, 12 and 13, the Figs. 9-11 sweeps and the granularity
// sweep. For each spec, the run's meter total less the total of the same
// system and job graphs drained without the charge must be P_sb ×
// makespan, where P_sb is the run's (host + near-memory DIMMs) ×
// DRAMBackgroundWPerDIMM + SSDs × SSDIdleW; the Figs. 9-11 sweeps grow
// the DIMM and SSD counts with n.
func TestStandbyIsPowerTimesMakespan(t *testing.T) {
	m := workload.DefaultModel()
	specs := append(fig8Specs(m), fig13Specs(m)...)
	fig12, _, _ := fig12Specs(m)
	specs = append(specs, fig12...)
	for _, st := range workload.Stages() {
		sweep, _, err := stageSweepSpecs(st, m)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sweep...)
	}
	specs = append(specs, granularitySpecs(m)...)

	type standby struct {
		run            *RunResult
		standbyJ, want float64
	}
	costs := energy.DefaultCosts()
	got, err := runner.Map(context.Background(), runner.Options{}, specs,
		func(_ context.Context, _ int, s RunSpec) (standby, error) {
			run, err := s.Run()
			if err != nil {
				return standby{}, err
			}
			bare, err := s.system()
			if err != nil {
				return standby{}, err
			}
			for b := 0; b < s.Batches; b++ {
				j, err := s.job(bare, b)
				if err != nil {
					return standby{}, err
				}
				if err := bare.GAM().Submit(j); err != nil {
					return standby{}, err
				}
			}
			bare.Run()
			cfg := run.Sys.Config()
			psb := float64(cfg.Memory.HostDIMMs+cfg.Memory.NearMemDIMMs)*costs.DRAMBackgroundWPerDIMM +
				float64(cfg.Storage.SSDs)*costs.SSDIdleW
			return standby{
				run:      run,
				standbyJ: run.Sys.Meter().Total() - bare.Meter().Total(),
				want:     psb * run.Makespan.Seconds(),
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if rel := math.Abs(g.standbyJ-g.want) / g.want; !(rel <= 1e-9) {
			t.Errorf("%s: standby %.12g J, P_sb × makespan %.12g J (relative error %.3g)",
				specs[i].Name, g.standbyJ, g.want, rel)
		}
	}

	// The per-batch split ROADMAP item 2 and EXPERIMENTS.md quote.
	byName := map[string]int{}
	for i, s := range specs {
		byName[s.Name] = i
	}
	for _, c := range []struct {
		name             string
		standbyJ, totalJ float64
	}{
		{"fig8 onchip", 9.05, 42.95},
		{"fig13 ReACH", 1.94, 17.29},
	} {
		i, ok := byName[c.name]
		if !ok {
			t.Fatalf("no spec named %q", c.name)
		}
		g, n := got[i], float64(specs[i].Batches)
		if math.Abs(g.standbyJ/n-c.standbyJ) > 0.005 || math.Abs(g.run.TotalEnergyPerBatch()-c.totalJ) > 0.005 {
			t.Errorf("%s: %.4f J of standby in %.4f J per batch, want %.2f J in %.2f J",
				c.name, g.standbyJ/n, g.run.TotalEnergyPerBatch(), c.standbyJ, c.totalJ)
		}
	}
}
