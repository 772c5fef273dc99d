package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scalarRelax is the drift relaxation RelaxBounds replaces in k-means'
// Yinyang step: per bound a float64 subtract and the d > 0 test, then
// float32 rounding to nearest and one ulp down unless that gave 0, with
// the least result kept (+Inf for no bounds).
func scalarRelax(lb []float32, drift []float64) float32 {
	minLB := float32(math.Inf(1))
	for g := range lb {
		v := float32(0)
		if d := float64(lb[g]) - drift[g]; d > 0 {
			if f := float32(d); f != 0 {
				v = math.Float32frombits(math.Float32bits(f) - 1)
			}
		}
		lb[g] = v
		if v < minLB {
			minLB = v
		}
	}
	return minLB
}

// decodeRelaxCase reads a length 0–33 from the first byte, then per bound
// a raw float32 bit pattern for lb and 8 bytes that are XORed into the
// bits of float64(lb) to give its drift: zero bytes give a drift equal to
// the bound, low bytes one within a few ulps of it, and any drift pattern
// is reachable. Values past the end of the input are zero.
func decodeRelaxCase(b []byte) (lb []float32, drift []float64) {
	n := 0
	if len(b) > 0 {
		n, b = int(b[0])%34, b[1:]
	}
	var elem [12]byte
	lb, drift = make([]float32, n), make([]float64, n)
	for g := range lb {
		clear(elem[:])
		b = b[copy(elem[:], b):]
		lb[g] = math.Float32frombits(binary.LittleEndian.Uint32(elem[:4]))
		drift[g] = math.Float64frombits(math.Float64bits(float64(lb[g])) ^ binary.LittleEndian.Uint64(elem[4:]))
	}
	return lb, drift
}

// encodeRelaxCase is the inverse of decodeRelaxCase, for seeds.
func encodeRelaxCase(lb []float32, drift []float64) []byte {
	b := []byte{byte(len(lb))}
	for g, v := range lb {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(v))^math.Float64bits(drift[g]))
	}
	return b
}

// FuzzRelaxBounds checks RelaxBounds and its plain-Go twin bit for bit
// against scalarRelax, bound by bound and in the minimum, with a sentinel
// past the last bound that must stay untouched. The inputs are raw bit
// patterns: lb runs from +0 through subnormals to MaxFloat32, and drift
// from +0 to +Inf, as k-means stores them, and both go beyond that to −0,
// negatives, ±Inf and NaN. Seeds give every length from 0 to 33, so every
// tail after whole four-bound passes occurs. On amd64 RelaxBounds runs the
// SSE routine, so both implementations are checked.
func FuzzRelaxBounds(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	edges := []float32{0, math.Float32frombits(1), math.Float32frombits(0x7fffff), math.SmallestNonzeroFloat32 * 3,
		0x1p-126, 1, 1.5, 3, math.MaxFloat32}
	// Per length, one seed mixing the cases below, and one whose bounds all
	// stay positive, so that a wrong minimum cannot hide behind a 0.
	for n := range 34 {
		lb, drift := make([]float32, n), make([]float64, n)
		for g := range lb {
			lb[g] = edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				lb[g] = float32(rng.ExpFloat64())
			}
			switch rng.Intn(6) {
			case 0: // d = 0
				drift[g] = float64(lb[g])
			case 1: // d just above 0, in float32's subnormal range or below it
				drift[g] = float64(lb[g]) - math.Ldexp(rng.Float64(), -125-rng.Intn(40))
			case 2: // d < 0
				drift[g] = float64(lb[g]) + rng.Float64()
			case 3: // d < 0 by a drift that overflowed
				drift[g] = math.Inf(1)
			case 4: // no drift
				drift[g] = 0
			default:
				drift[g] = rng.Float64() * float64(lb[g])
			}
		}
		f.Add(encodeRelaxCase(lb, drift))
		for g := range lb {
			lb[g] = float32(1 + rng.ExpFloat64())
			drift[g] = rng.Float64() * float64(lb[g]) / 2
		}
		f.Add(encodeRelaxCase(lb, drift))
	}
	nan := float32(math.NaN())
	f.Add(encodeRelaxCase(
		[]float32{float32(math.Copysign(0, -1)), nan, 1, float32(math.Inf(1)), float32(math.Inf(-1)), -2, 2},
		[]float64{0, 0, math.NaN(), math.Inf(1), math.Inf(-1), -3, math.Copysign(0, -1)}))

	f.Fuzz(func(t *testing.T, b []byte) {
		in, drift := decodeRelaxCase(b)
		n := len(in)
		want := append([]float32(nil), in...)
		wantMin := scalarRelax(want, drift)
		const sentinel = float32(-1.5)
		for impl, relax := range map[string]func([]float32, []float64) float32{
			"RelaxBounds": RelaxBounds, "plain-Go twin": relaxBoundsGo,
		} {
			got := append(append(make([]float32, 0, n+1), in...), sentinel)
			gotMin := relax(got[:n], append(drift, 7))
			for g := range want {
				if math.Float32bits(got[g]) != math.Float32bits(want[g]) {
					t.Errorf("%s, bound %d of %d: %v (%#08x) relaxed by %v to %v (%#08x), the scalar loop gives %v (%#08x)",
						impl, g, n, in[g], math.Float32bits(in[g]), drift[g], got[g], math.Float32bits(got[g]),
						want[g], math.Float32bits(want[g]))
				}
			}
			if math.Float32bits(gotMin) != math.Float32bits(wantMin) {
				t.Errorf("%s over %d bounds: minimum %v, the scalar loop gives %v", impl, n, gotMin, wantMin)
			}
			if got[n] != sentinel {
				t.Errorf("%s over %d bounds wrote past the last: %v", impl, n, got[n])
			}
		}
	})
}

func TestRelaxBoundsAllocatesNothing(t *testing.T) {
	lb, drift := benchBounds(26)
	if allocs := testing.AllocsPerRun(100, func() { sinkF32 = RelaxBounds(lb, drift) }); allocs != 0 {
		t.Errorf("RelaxBounds allocated %v times per call, want 0", allocs)
	}
}

// benchBounds returns t lower bounds and drifts shaped like a late k-means
// iteration: a quarter of the bounds at 0 and the rest near 1, with drifts
// so small that the calls of a 1 s run, each also stepping every bound one
// ulp down, leave them positive.
func benchBounds(t int) ([]float32, []float64) {
	rng := rand.New(rand.NewSource(int64(t)))
	lb, drift := make([]float32, t), make([]float64, t)
	for g := range lb {
		if g%4 != 3 {
			lb[g] = 0.5 + rng.Float32()
		}
		drift[g] = rng.Float64() * 1e-12
	}
	return lb, drift
}

// BenchmarkRelaxBounds relaxes one point's group bounds per op: t = 4 for
// motivation's 32-cell IVF build, 26 for the k = 256 builds, 27 for a
// tail of three after whole four-bound passes.
func BenchmarkRelaxBounds(b *testing.B) {
	for _, t := range []int{4, 26, 27} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			lb, drift := benchBounds(t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkF32 = RelaxBounds(lb, drift)
			}
		})
	}
}
