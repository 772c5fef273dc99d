package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CachePoint is one (cache entries, TTL, Zipf skew, offered rate) cell of
// the cache sweep: tail latency over the completed queries plus the cache
// accounting that explains it — hit rate, coalesced scatters, expirations
// and the freshness actually served.
type CachePoint struct {
	Entries    int
	TTLMS      float64
	Skew       float64
	OfferedQPS float64
	Completed  uint64

	Mean sim.Time
	P50  sim.Time
	P99  sim.Time

	// Cache is the run's cache accounting (zero when Entries == 0).
	Cache cluster.CacheStats
	// PeakPending is the singleflight table's high-water mark.
	PeakPending int
	// MeanBusyPct is the backend's mean accelerator utilisation in percent
	// — the cache's pressure relief shows up here as well as in the tail.
	MeanBusyPct float64
}

// CacheSweepResult is the full sweep, points in (entries, ttl, skew, rate)
// declaration order.
type CacheSweepResult struct {
	Points []*CachePoint
}

// Point finds a swept cell (nil if absent). A cache-off cell matches any
// ttl — the TTL is meaningless without entries.
func (r *CacheSweepResult) Point(entries int, ttlMS, skew, qps float64) *CachePoint {
	for _, p := range r.Points {
		if p.Entries != entries || p.Skew != skew || p.OfferedQPS != qps {
			continue
		}
		if entries == 0 || p.TTLMS == ttlMS {
			return p
		}
	}
	return nil
}

// Sweep defaults: a cache-off baseline against capacities below and near
// the 64-content working set, one TTL short enough to expire under the
// sweep's inter-arrival gaps and one effectively permanent, a moderate and
// a heavy Zipf skew, and rates up to the hot-replica saturation region the
// cluster sweep mapped.
const (
	DefaultCacheQueries = 48
	DefaultCacheSeed    = 1
)

// DefaultCacheEntries sweeps capacity (0 = cache off).
func DefaultCacheEntries() []int { return []int{0, 8, 32} }

// DefaultCacheTTLsMS sweeps the freshness window.
func DefaultCacheTTLsMS() []float64 { return []float64{250, 2500} }

// DefaultCacheSkews sweeps Zipf popularity concentration.
func DefaultCacheSkews() []float64 { return []float64{0.7, 1.2} }

// DefaultCacheRates sweeps offered load.
func DefaultCacheRates() []float64 { return []float64{10, 20} }

// cacheCell is one unit of sweep work.
type cacheCell struct {
	entries int
	ttlMS   float64
	skew    float64
	rate    float64
	stream  int64
}

// CacheSweep sweeps front-end cache capacity × TTL × Zipf skew × offered
// QPS over the deployment described by cfg (whose CacheEntries, CacheTTLMS
// and SkewExponent are overridden per cell). Cache-off cells run once per
// (skew, rate) — TTL is meaningless without entries. Arrivals are open-loop
// Poisson from a per-cell stream seeded by seed, precomputed so results are
// byte-identical at any worker count.
func CacheSweep(m workload.Model, cfg config.ClusterConfig, entries []int, ttlsMS, skews, rates []float64, queries int, seed int64, opts ...Option) (*CacheSweepResult, error) {
	if queries <= 0 {
		return nil, fmt.Errorf("experiments: cache sweep needs at least one query, got %d", queries)
	}
	var cells []cacheCell
	for _, e := range entries {
		ttls := ttlsMS
		if e == 0 {
			ttls = ttlsMS[:1] // off cells: one baseline per (skew, rate)
		}
		for _, ttl := range ttls {
			for _, skew := range skews {
				for _, rate := range rates {
					cells = append(cells, cacheCell{e, ttl, skew, rate, int64(len(cells))})
				}
			}
		}
	}
	o := buildOptions(opts)
	name := func(i int) string {
		c := cells[i]
		if c.entries == 0 {
			return fmt.Sprintf("cachesweep off s%.1f %.0f q/s", c.skew, c.rate)
		}
		return fmt.Sprintf("cachesweep %de %.0fms s%.1f %.0f q/s", c.entries, c.ttlMS, c.skew, c.rate)
	}
	arr := ArrivalSpec{Process: ArrivalPoisson, Seed: seed}
	attach, report := o.sampleCells(len(cells), name)
	points, err := mapRuns(o, cells, name, func(cell cacheCell) (*CachePoint, error) {
		ccfg := cfg
		ccfg.CacheEntries = cell.entries
		ccfg.CacheTTLMS = cell.ttlMS
		ccfg.SkewExponent = cell.skew
		cl, err := cluster.New(ccfg, m, qtrace.Options{DropTimelines: true})
		if err != nil {
			return nil, err
		}
		attach(int(cell.stream), cl)
		at := arr.schedule(cell.rate, queries, cell.stream)
		for q := 0; q < queries; q++ {
			cl.SubmitAt(at(q))
		}
		if err := cl.Run(); err != nil {
			return nil, err
		}
		sk := cl.QLog().Sketch()
		p := &CachePoint{
			Entries:     cell.entries,
			TTLMS:       cell.ttlMS,
			Skew:        cell.skew,
			OfferedQPS:  cell.rate,
			Completed:   sk.Count(),
			Mean:        sk.Mean(),
			P50:         sk.Quantile(0.5),
			P99:         sk.Quantile(0.99),
			Cache:       cl.CacheStats(),
			PeakPending: cl.PeakPending(),
			MeanBusyPct: cl.MeanBusyPct(),
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	report()
	return &CacheSweepResult{Points: points}, nil
}

// DefaultCacheSweep runs the standard sweep over the default deployment.
func DefaultCacheSweep(m workload.Model, opts ...Option) (*CacheSweepResult, error) {
	return CacheSweep(m, config.DefaultCluster(),
		DefaultCacheEntries(), DefaultCacheTTLsMS(), DefaultCacheSkews(), DefaultCacheRates(),
		DefaultCacheQueries, DefaultCacheSeed, opts...)
}

// CacheSweepTable renders the sweep: capacity/TTL on the left, tail latency
// and the cache accounting on the right.
func CacheSweepTable(res *CacheSweepResult) *report.Table {
	t := &report.Table{
		Title: "Front-end result cache — capacity × TTL × Zipf skew × load",
		Columns: []string{"Entries", "TTL ms", "Skew", "Offered q/s",
			"p50 ms", "p99 ms", "hit %", "coalesced", "expired", "serve age ms"},
	}
	for _, p := range res.Points {
		entries, ttl := fmt.Sprintf("%d", p.Entries), report.F(p.TTLMS, 0)
		if p.Entries == 0 {
			entries, ttl = "off", "-"
		}
		t.AddRow(
			entries,
			ttl,
			report.F(p.Skew, 1),
			report.F(p.OfferedQPS, 0),
			report.F(p.P50.Milliseconds(), 1),
			report.F(p.P99.Milliseconds(), 1),
			report.F(100*p.Cache.HitRate, 1),
			fmt.Sprintf("%d", p.Cache.Coalesced),
			fmt.Sprintf("%d", p.Cache.Expired),
			report.F(p.Cache.MeanServeAge.Milliseconds(), 2),
		)
	}
	// Headline: the cache's tail relief at the heaviest (skew, rate) corner.
	var maxSkew, maxRate float64
	for _, p := range res.Points {
		if p.Skew > maxSkew {
			maxSkew = p.Skew
		}
		if p.OfferedQPS > maxRate {
			maxRate = p.OfferedQPS
		}
	}
	off := res.Point(0, 0, maxSkew, maxRate)
	var best *CachePoint
	for _, p := range res.Points {
		if p.Entries == 0 || p.Skew != maxSkew || p.OfferedQPS != maxRate {
			continue
		}
		if best == nil || p.P99 < best.P99 {
			best = p
		}
	}
	if off != nil && best != nil && best.P99 > 0 {
		t.AddNote("at skew %.1f, %.0f q/s: cache-off p99 %.1f ms vs %d entries/%.0f ms TTL p99 %.1f ms (%.2fx), hit rate %.0f%%",
			maxSkew, maxRate, off.P99.Milliseconds(), best.Entries, best.TTLMS,
			best.P99.Milliseconds(), float64(off.P99)/float64(best.P99), 100*best.Cache.HitRate)
	}
	return t
}
