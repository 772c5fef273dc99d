package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/qtrace"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPoissonArrivalsDeterministic: the precomputed Poisson schedule is a
// pure function of (seed, stream, rate, batches) — same inputs give the
// same times, different seeds or streams give different ones, and times
// are strictly increasing from a positive first gap.
func TestPoissonArrivalsDeterministic(t *testing.T) {
	arr := ArrivalSpec{Process: ArrivalPoisson, Seed: 7}
	a := arr.schedule(2.0, 50, 3)
	b := arr.schedule(2.0, 50, 3)
	prev := sim.Time(0)
	for id := 0; id < 50; id++ {
		if a(id) != b(id) {
			t.Fatalf("id %d: same seed gave %v and %v", id, a(id), b(id))
		}
		if a(id) <= prev {
			t.Fatalf("id %d: arrival %v not after %v", id, a(id), prev)
		}
		prev = a(id)
	}
	c := ArrivalSpec{Process: ArrivalPoisson, Seed: 8}.schedule(2.0, 50, 3)
	d := arr.schedule(2.0, 50, 4)
	if a(0) == c(0) && a(1) == c(1) {
		t.Error("different seeds produced the same schedule")
	}
	if a(0) == d(0) && a(1) == d(1) {
		t.Error("different streams produced the same schedule")
	}
	// The fixed process stays the golden path: id/rate exactly.
	f := ArrivalSpec{}.schedule(4.0, 10, 0)
	for id := 0; id < 10; id++ {
		if want := sim.Time(id) * sim.FromSeconds(0.25); f(id) != want {
			t.Fatalf("fixed arrival %d = %v, want %v", id, f(id), want)
		}
	}
}

// TestTailLatencyDivergenceAndAttribution is the pinned acceptance run:
// under a Poisson open loop near the on-chip baseline's saturation point,
// its p99/p50 ratio diverges while the ReACH hierarchy's stays bounded,
// and per-query attribution names the saturated stage's queue as the
// dominant phase for most over-p99 queries.
func TestTailLatencyDivergenceAndAttribution(t *testing.T) {
	onchip, reach, err := TailLatencyBoth(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	// Every point must account for every submitted query.
	for _, res := range []*TailLatencyResult{onchip, reach} {
		for _, p := range res.Points {
			if p.Completed != DefaultTailBatches {
				t.Fatalf("%s %.2f q/s: completed %d, want %d",
					res.Option, p.OfferedQPS, p.Completed, DefaultTailBatches)
			}
		}
	}
	// Divergence: somewhere in the sweep the saturated baseline's tail
	// blows up relative to its median, while the hierarchy's ratio stays
	// within a small constant at every rate.
	o := onchip.Points[0]
	for _, p := range onchip.Points {
		if p.TailRatio() > o.TailRatio() {
			o = p
		}
	}
	var reachMax float64
	for _, p := range reach.Points {
		if p.TailRatio() > 2 {
			t.Errorf("ReACH p99/p50 = %.2f at %.1f q/s; expected bounded (< 2)",
				p.TailRatio(), p.OfferedQPS)
		}
		if p.TailRatio() > reachMax {
			reachMax = p.TailRatio()
		}
	}
	if o.TailRatio() < 2.5 {
		t.Errorf("onchip peak p99/p50 = %.2f at %.1f q/s; expected divergence (> 2.5)",
			o.TailRatio(), o.OfferedQPS)
	}
	if o.TailRatio() < 1.5*reachMax {
		t.Errorf("tail ratios did not separate: onchip peak %.2f vs ReACH peak %.2f",
			o.TailRatio(), reachMax)
	}
	// Attribution: the over-p99 queries of the saturated mapping are
	// dominated by queue wait at the (single, shared) on-chip level.
	if o.TailCount == 0 {
		t.Fatal("no over-p99 queries at the saturated rate")
	}
	if o.TailQueueShare <= 0.5 {
		t.Errorf("only %.0f%% of over-p99 onchip queries queue-dominated, want > 50%%",
			o.TailQueueShare*100)
	}
	if o.TailLevel != "OnChip" {
		t.Errorf("modal tail level %q, want OnChip", o.TailLevel)
	}
	if o.TailStage == "" {
		t.Error("no modal tail stage attributed")
	}
	var sb strings.Builder
	if err := TailLatencyTable(onchip, reach).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "over-p99 queries dominated by queue wait") {
		t.Errorf("table missing tail-attribution note:\n%s", sb.String())
	}
}

// TestTailLatencySweepDeterministic: the same seed gives byte-identical
// sweep output — table, per-query summary CSV and interval CSV — whether
// the runs execute on 1 worker or 8.
func TestTailLatencySweepDeterministic(t *testing.T) {
	render := func(workers int) string {
		res, err := TailLatency(workload.DefaultModel(), ReACHMapping(), 4,
			[]float64{2, 3}, 24, 42, WithPool(runner.NewPool(workers)))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		res.Option = "ReACH"
		if err := TailLatencyTable(res, res).CSV(&out); err != nil {
			t.Fatal(err)
		}
		cw := qtrace.NewCSVWriter(&out, &out)
		for i, run := range res.Runs {
			if err := cw.WriteRun(tailLatencySpecs(workload.DefaultModel(), ReACHMapping(), 4, []float64{2, 3}, 24, 42)[i].Name, run.QLog); err != nil {
				t.Fatal(err)
			}
		}
		return out.String()
	}
	one := render(1)
	eight := render(8)
	if one != eight {
		t.Errorf("sweep output differs between -j 1 and -j 8:\n--- j1 ---\n%.2000s\n--- j8 ---\n%.2000s", one, eight)
	}
}
