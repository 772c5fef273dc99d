package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestComponentStrings(t *testing.T) {
	want := []string{"ACC", "Cache", "DRAM", "SSD", "MC and Interconnect", "PCIe"}
	for i, c := range Components() {
		if c.String() != want[i] {
			t.Errorf("component %d = %q, want %q", i, c.String(), want[i])
		}
	}
	if Component(99).String() == "" {
		t.Error("unknown component empty string")
	}
	if Compute.String() != "Compute" || Movement.String() != "Data movement" {
		t.Error("Kind strings wrong")
	}
}

func TestActiveEnergy(t *testing.T) {
	m := NewMeter(DefaultCosts())
	// 25 W for 111 ms — the on-chip CNN stage — is 2.775 J.
	m.AddActive("FeatureExtraction", 25, 111*sim.Millisecond)
	got := m.Component(ACC)
	if math.Abs(got-2.775) > 1e-9 {
		t.Errorf("ACC energy = %v J, want 2.775", got)
	}
	if m.Kind(Compute) != got {
		t.Error("active energy not classified as compute")
	}
}

func TestMovementHelpers(t *testing.T) {
	c := DefaultCosts()
	m := NewMeter(c)
	const n = 1 << 30
	m.CacheTraffic("s", n)
	m.DRAMTraffic("s", n)
	m.MCTraffic("s", n)
	m.SSDTraffic("s", n)
	m.PCIeTraffic("s", n)
	m.AIMBusTraffic("s", n)

	checks := []struct {
		comp Component
		want float64
	}{
		{Cache, float64(n) * c.CachePerByte},
		{DRAM, float64(n) * c.DRAMPerByte},
		{SSD, float64(n) * c.SSDPerByte},
		{PCIe, float64(n) * c.PCIePerByte},
		{MCInterconnect, float64(n) * (c.MCPerByte + c.AIMBusPerByte)},
	}
	for _, chk := range checks {
		if got := m.Component(chk.comp); math.Abs(got-chk.want) > 1e-12 {
			t.Errorf("%v = %v J, want %v", chk.comp, got, chk.want)
		}
	}
	if m.Kind(Compute) != 0 {
		t.Error("movement recorded as compute")
	}
	// Map-iteration order varies the float summation order, so compare
	// with tolerance.
	if share := m.MovementShare(); math.Abs(share-1.0) > 1e-12 {
		t.Errorf("movement share = %v, want 1", share)
	}
}

func TestStageAttribution(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.AddActive("FE", 10, sim.Second)  // 10 J compute
	m.DRAMTraffic("FE", 2_000_000_000) // 3 J movement
	m.AddActive("RR", 5, sim.Second)   // 5 J
	m.SSDTraffic("RR", 4_000_000_000)  // 10 J

	if got := m.Stage("FE"); math.Abs(got-13) > 1e-9 {
		t.Errorf("FE stage = %v, want 13", got)
	}
	if got := m.StageKind("RR", Movement); math.Abs(got-10) > 1e-9 {
		t.Errorf("RR movement = %v, want 10", got)
	}
	if got := m.ComponentStage(ACC, "RR"); math.Abs(got-5) > 1e-9 {
		t.Errorf("ACC/RR = %v, want 5", got)
	}
	if got := m.Total(); math.Abs(got-28) > 1e-9 {
		t.Errorf("total = %v, want 28", got)
	}
	stages := m.Stages()
	if len(stages) != 2 || stages[0] != "FE" || stages[1] != "RR" {
		t.Errorf("stages = %v", stages)
	}
}

func TestBackground(t *testing.T) {
	c := DefaultCosts()
	m := NewMeter(c)
	m.AddBackground("idle", 8, 4, 10*sim.Second)
	wantDRAM := 8 * c.DRAMBackgroundWPerDIMM * 10
	wantSSD := 4 * c.SSDIdleW * 10
	if got := m.Component(DRAM); math.Abs(got-wantDRAM) > 1e-9 {
		t.Errorf("DRAM background = %v, want %v", got, wantDRAM)
	}
	if got := m.Component(SSD); math.Abs(got-wantSSD) > 1e-9 {
		t.Errorf("SSD idle = %v, want %v", got, wantSSD)
	}
}

func TestMergeAndReset(t *testing.T) {
	a := NewMeter(DefaultCosts())
	b := NewMeter(DefaultCosts())
	a.AddActive("s", 1, sim.Second)
	b.AddActive("s", 2, sim.Second)
	a.Merge(b)
	if math.Abs(a.Total()-3) > 1e-9 {
		t.Errorf("merged total = %v, want 3", a.Total())
	}
	a.Reset()
	if a.Total() != 0 {
		t.Errorf("total after reset = %v", a.Total())
	}
	if a.MovementShare() != 0 {
		t.Error("movement share of empty meter not 0")
	}
}

func TestNegativeEnergyPanics(t *testing.T) {
	m := NewMeter(DefaultCosts())
	defer func() {
		if recover() == nil {
			t.Error("negative energy accepted")
		}
	}()
	m.Add(ACC, "s", Compute, -1)
}

// Property: Total always equals the sum over components, and equals the sum
// over kinds, whatever mix of records is made.
func TestMeterConsistency(t *testing.T) {
	f := func(records []struct {
		C uint8
		K bool
		J uint16
	}) bool {
		m := NewMeter(DefaultCosts())
		for _, r := range records {
			comp := Component(int(r.C) % int(numComponents))
			kind := Compute
			if r.K {
				kind = Movement
			}
			m.Add(comp, "s", kind, float64(r.J))
		}
		var byComp, byKind float64
		for _, c := range Components() {
			byComp += m.Component(c)
		}
		byKind = m.Kind(Compute) + m.Kind(Movement)
		total := m.Total()
		return math.Abs(total-byComp) < 1e-6 && math.Abs(total-byKind) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMeterSumsAreDeterministic: every query sums its cells in one fixed
// order, so repeated queries of one meter, and the same query of two
// meters fed the same charges, agree to the last bit. The cells span
// twelve orders of magnitude, so any change of summation order shows.
func TestMeterSumsAreDeterministic(t *testing.T) {
	stages := []string{"FE", "SL", "RR", "Setup"}
	feed := func() *Meter {
		m := NewMeter(DefaultCosts())
		rng := rand.New(rand.NewSource(1))
		for _, s := range stages {
			for _, c := range Components() {
				for _, k := range []Kind{Compute, Movement} {
					m.Add(c, s, k, rng.Float64()*math.Pow(10, float64(rng.Intn(13)-6)))
				}
			}
		}
		return m
	}
	type result struct {
		query string
		v     float64
	}
	queries := func(m *Meter) []result {
		out := []result{
			{"Total", m.Total()},
			{"Kind(Compute)", m.Kind(Compute)},
			{"Kind(Movement)", m.Kind(Movement)},
			{"MovementShare", m.MovementShare()},
		}
		for _, c := range Components() {
			out = append(out, result{"Component(" + c.String() + ")", m.Component(c)})
			for _, s := range stages {
				out = append(out, result{"ComponentStage(" + c.String() + "," + s + ")", m.ComponentStage(c, s)})
			}
		}
		for _, s := range stages {
			out = append(out,
				result{"Stage(" + s + ")", m.Stage(s)},
				result{"StageKind(" + s + ",Compute)", m.StageKind(s, Compute)},
				result{"StageKind(" + s + ",Movement)", m.StageKind(s, Movement)})
		}
		return out
	}
	same := func(what string, got, want []result) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i].v) != math.Float64bits(want[i].v) {
				t.Fatalf("%s: %s = %v, want %v", what, got[i].query, got[i].v, want[i].v)
			}
		}
	}
	a := feed()
	want := queries(a)
	for i := 0; i < 2000; i++ {
		same("repeated query", queries(a), want)
	}
	same("second meter", queries(feed()), want)
}
