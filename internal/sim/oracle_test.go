package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestLinkMatchesPollaczekKhinchine is a validity oracle: a Link fed by
// Poisson arrivals is an M/G/1 FIFO queue, so its mean wait must match
// the Pollaczek–Khinchine formula λE[S²]/(2(1−ρ)). Each case drives 200k
// arrivals through the engine onto a 1 GB/s link with a 1 MB mean
// transfer, discards the first 20k as warm-up, and splits the rest into
// 20 batches. The formula must lie within t(19, 0.9995) = 3.88 standard
// errors of the mean of the batch means. The seed is fixed, so a failure
// is a bug in Link, not a bound to widen.
func TestLinkMatchesPollaczekKhinchine(t *testing.T) {
	const (
		bytesPerSec = 1e9
		meanBytes   = 1e6
		arrivals    = 200_000
		warmup      = 20_000
		batches     = 20
		perBatch    = (arrivals - warmup) / batches
		tCrit       = 3.88
	)
	es := meanBytes / bytesPerSec // mean service time, seconds
	sizes := []struct {
		name string
		es2  float64 // E[S²], seconds²
		draw func(*rand.Rand) int64
	}{
		{"M/D/1", es * es, func(*rand.Rand) int64 { return meanBytes }},
		{"M/M/1", 2 * es * es, func(r *rand.Rand) int64 { return int64(r.ExpFloat64()*meanBytes + 0.5) }},
	}
	for _, sz := range sizes {
		for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			lambda := rho / es
			want := lambda * sz.es2 / (2 * (1 - rho))

			rng := rand.New(rand.NewSource(1))
			eng := NewEngine()
			link := NewLink(eng, "link", bytesPerSec, 0)
			var sums [batches]float64
			n := 0
			var arrive func()
			arrive = func() {
				before := link.QueuedDelay()
				link.Transfer(sz.draw(rng))
				if n >= warmup {
					sums[(n-warmup)/perBatch] += (link.QueuedDelay() - before).Seconds()
				}
				if n++; n < arrivals {
					eng.Schedule(FromSeconds(rng.ExpFloat64()/lambda), arrive)
				}
			}
			eng.Schedule(FromSeconds(rng.ExpFloat64()/lambda), arrive)
			eng.Run()

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
				t.Errorf("%s ρ=%.1f: mean wait %.4g ms, Pollaczek–Khinchine %.4g ms (z = %.2f, want |z| <= %.2f)",
					sz.name, rho, mean*1e3, want*1e3, z, tCrit)
			}
		}
	}
}
