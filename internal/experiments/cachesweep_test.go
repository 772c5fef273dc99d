package experiments

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/workload"
)

// smallCacheSweep is the reduced matrix the unit tests run: off vs one
// capacity, one TTL, one skew, two rates.
func smallCacheSweep(t *testing.T, opts ...Option) *CacheSweepResult {
	t.Helper()
	res, err := CacheSweep(workload.DefaultModel(), config.DefaultCluster(),
		[]int{0, 32}, []float64{2500}, []float64{1.2}, []float64{10, 20},
		32, DefaultCacheSeed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCacheSweepShape(t *testing.T) {
	res := smallCacheSweep(t)
	if len(res.Points) != 4 {
		t.Fatalf("got %d points, want 4 (2 capacities × 2 rates)", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Completed != 32 {
			t.Fatalf("%de %.0f q/s completed %d of 32", p.Entries, p.OfferedQPS, p.Completed)
		}
		if p.P99 < p.P50 {
			t.Fatalf("quantiles out of order at %de %.0f q/s", p.Entries, p.OfferedQPS)
		}
		if p.Entries == 0 {
			if p.Cache != (cluster.CacheStats{}) {
				t.Fatalf("cache-off cell reported cache activity: %+v", p.Cache)
			}
			continue
		}
		if p.Cache.Lookups != uint64(p.Completed) {
			t.Fatalf("%de %.0f q/s: %d lookups for %d queries — every arrival must look up once",
				p.Entries, p.OfferedQPS, p.Cache.Lookups, p.Completed)
		}
		if p.Cache.Hits+p.Cache.Misses+p.Cache.Expired != p.Cache.Lookups {
			t.Fatalf("cache accounting does not add up: %+v", p.Cache)
		}
	}
}

// TestCacheSweepCacheBeatsOffAtPeak pins the tentpole's acceptance
// criterion: in the default pinned sweep, the cached cluster beats
// cache-off on p99 at the peak (skew, rate) corner while reporting a
// non-zero hit rate and the stale-serve age behind it.
func TestCacheSweepCacheBeatsOffAtPeak(t *testing.T) {
	res, err := DefaultCacheSweep(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	off, best, _ := res.Headline()
	if off == nil {
		t.Fatal("pinned sweep missing the cache-off baseline or a cached cell at the peak corner")
	}
	rates, skews := DefaultCacheRates(), DefaultCacheSkews()
	if off.Skew != skews[len(skews)-1] || off.OfferedQPS != rates[len(rates)-1] {
		t.Fatalf("headline compares skew %.1f at %.0f q/s, not the peak corner", off.Skew, off.OfferedQPS)
	}
	t.Logf("skew %.1f at %.0f q/s: off p99 %.1f ms vs %d entries/%.0f ms TTL p99 %.1f ms, hit rate %.0f%%, mean serve age %.1f ms",
		off.Skew, off.OfferedQPS, off.P99.Milliseconds(), best.Entries, best.TTLMS,
		best.P99.Milliseconds(), 100*best.Cache.HitRate, best.Cache.MeanServeAge.Milliseconds())
	if best.P99 >= off.P99 {
		t.Fatalf("cached p99 %v does not beat cache-off p99 %v at peak load", best.P99, off.P99)
	}
	if best.Cache.HitRate <= 0 {
		t.Fatal("winning cached cell reports a zero hit rate")
	}
	if best.Cache.MeanServeAge <= 0 {
		t.Fatal("winning cached cell reports no stale-serve age despite hits")
	}
}

// TestCacheSweepWorkerCountInvariant: the rendered table is byte-identical
// whether the sweep runs serially or on 8 workers.
func TestCacheSweepWorkerCountInvariant(t *testing.T) {
	render := func(opts ...Option) string {
		var b strings.Builder
		if err := CacheSweepTable(smallCacheSweep(t, opts...)).Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(WithPool(runner.NewPool(1)))
	parallel := render(WithPool(runner.NewPool(8)))
	if serial != parallel {
		t.Fatalf("cache sweep differs by worker count:\n-- j1 --\n%s\n-- j8 --\n%s", serial, parallel)
	}
}

func TestCacheSweepTableRenders(t *testing.T) {
	var b strings.Builder
	if err := CacheSweepTable(smallCacheSweep(t)).Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Entries", "off", "hit %", "coalesced", "serve age ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
