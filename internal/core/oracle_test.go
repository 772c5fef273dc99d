package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/sim"
)

// TestGAMQueueMatchesPollaczekKhinchine is a validity oracle for the GAM's
// per-level dispatch queue. Poisson arrivals of single-task on-chip jobs
// make the on-chip ready queue a FIFO M/G/c queue whose service time S is
// each task's slot-hold time, DetectedAt − DispatchedAt (command packet,
// execution, completion flag). With one instance the mean wait
// DispatchedAt − ReadyAt must match Pollaczek–Khinchine, λE[S²]/(2(1−ρ)),
// for deterministic and exponential work; with four instances and
// deterministic work it must match Cosmetatos's M/D/c approximation, each
// at ρ = 0.3, 0.5, 0.7 and 0.9. E[S]
// and E[S²] are measured over the same tasks as the waits. Each case runs
// 100k arrivals, discards the first 10k as warm-up and splits the rest
// into 20 batches; the formula must lie within t(19, 0.9995) = 3.88
// standard errors of the mean of the batch means. The seed is fixed, so a
// failure is a bug in the GAM, not a bound to widen.
func TestGAMQueueMatchesPollaczekKhinchine(t *testing.T) {
	const (
		arrivals = 100_000
		warmup   = 10_000
		batches  = 20
		perBatch = (arrivals - warmup) / batches
		tCrit    = 3.88
		meanMACs = 2e9 // about 0.9 ms on one on-chip instance
	)
	deterministic := func(*rand.Rand) float64 { return meanMACs }
	exponential := func(r *rand.Rand) float64 { return r.ExpFloat64() * meanMACs }
	for _, q := range []struct {
		name      string
		instances int
		work      func(*rand.Rand) float64
	}{
		{"M/D/1", 1, deterministic},
		{"M/M/1", 1, exponential},
		{"M/D/4", 4, deterministic},
	} {
		for _, rho := range []float64{0.3, 0.5, 0.7, 0.9} {
			s := newSystem(t, config.Default().WithInstances(q.instances, 0, 0))
			k := lookup(t, s, "CNN-VU9P")
			eng := s.Engine()
			rng := rand.New(rand.NewSource(1))
			// λ is set from the nominal service time; the check uses the
			// measured one.
			es0 := k.Duration(meanMACs, 0).Seconds() + 2*s.gamCommandLatency().Seconds()
			lambda := rho * float64(q.instances) / es0

			var sums [batches]float64
			var s1, s2 float64
			done := doneFunc(func(j *Job) {
				if j.ID < warmup {
					return
				}
				n := j.Nodes[0]
				sums[(j.ID-warmup)/perBatch] += (n.DispatchedAt - n.ReadyAt).Seconds()
				hold := (n.DetectedAt - n.DispatchedAt).Seconds()
				s1 += hold
				s2 += hold * hold
			})
			id := 0
			var arrive func()
			arrive = func() {
				j := NewJob(id)
				j.AddTask(accel.Task{Name: "t", Stage: "oracle", Kernel: k, MACs: q.work(rng), Source: accel.SourceSPM}, accel.OnChip)
				j.OnDone(done, 0)
				if err := s.GAM().Submit(j); err != nil {
					t.Fatal(err)
				}
				if id++; id < arrivals {
					eng.Schedule(sim.FromSeconds(rng.ExpFloat64()/lambda), arrive)
				}
			}
			eng.Schedule(sim.FromSeconds(rng.ExpFloat64()/lambda), arrive)
			eng.Run()

			measured := float64(arrivals - warmup)
			es, es2 := s1/measured, s2/measured
			want := waitMGc(q.instances, lambda, es, es2)
			var mean float64
			for i := range sums {
				sums[i] /= perBatch
				mean += sums[i] / batches
			}
			var ss float64
			for _, m := range sums {
				ss += (m - mean) * (m - mean)
			}
			se := math.Sqrt(ss / (batches - 1) / batches)
			if z := (mean - want) / se; math.Abs(z) > tCrit {
				t.Errorf("%s ρ=%.1f: mean wait %.4g ms, formula %.4g ms (z = %.2f, want |z| <= %.2f)",
					q.name, lambda*es/float64(q.instances), mean*1e3, want*1e3, z, tCrit)
			}
		}
	}
}

// waitMGc is the mean queue wait of a FIFO queue with Poisson arrivals at
// rate lambda onto c servers whose service time has moments es and es2.
// For c = 1 it is Pollaczek–Khinchine, exact for any service distribution.
// For c > 1 it is Cosmetatos's approximation for deterministic service:
// half the M/M/c (Erlang C) wait, corrected by
// 1 + (1−ρ)(c−1)(√(4+5c) − 2)/(16ρc).
func waitMGc(c int, lambda, es, es2 float64) float64 {
	rho := lambda * es / float64(c)
	if c == 1 {
		return lambda * es2 / (2 * (1 - rho))
	}
	a := lambda * es // offered load in Erlangs
	term, sum := 1.0, 0.0
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term / (1 - rho) // a^c / c! / (1 − ρ)
	erlangC := tail / (sum + tail)
	wMMc := erlangC * es / (float64(c) * (1 - rho))
	fc := float64(c)
	return wMMc / 2 * (1 + (1-rho)*(fc-1)*(math.Sqrt(4+5*fc)-2)/(16*rho*fc))
}
