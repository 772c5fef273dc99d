package cluster

import (
	"testing"

	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/sim"
)

// cachedConfig is the default deployment with the front-end cache on and a
// single-content universe, so every query after the first warm-up finds
// the cache populated — the sharpest setting for lifecycle assertions.
func cachedConfig() config.ClusterConfig {
	cfg := config.DefaultCluster()
	cfg.ContentItems = 1
	cfg.CacheEntries = 4
	cfg.CacheTTLMS = 10_000
	return cfg
}

// TestFECacheLRUEviction pins the eviction order: at capacity, filling a
// new content evicts the least-recently-used entry, and a lookup refreshes
// recency.
func TestFECacheLRUEviction(t *testing.T) {
	c := newFECache(2, sim.FromSeconds(1))
	c.fill(10, 0)
	c.fill(20, 1)
	// Touch 10 so 20 becomes the LRU entry.
	if hit, _ := c.lookup(10, 2); !hit {
		t.Fatal("content 10 missing right after fill")
	}
	c.fill(30, 3) // must evict 20
	if hit, _ := c.lookup(20, 4); hit {
		t.Fatal("content 20 survived eviction at capacity")
	}
	for _, want := range []int{10, 30} {
		if hit, _ := c.lookup(want, 4); !hit {
			t.Fatalf("content %d evicted, want 20 (the LRU entry) evicted", want)
		}
	}
	if st := c.stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestFECacheTTLBoundary pins the freshness semantics: an entry is served
// up to — but not at — the TTL boundary. age == ttl is stale.
func TestFECacheTTLBoundary(t *testing.T) {
	ttl := sim.Time(100)
	c := newFECache(2, ttl)
	c.fill(7, 0)
	if hit, age := c.lookup(7, 99); !hit || age != 99 {
		t.Fatalf("lookup at age 99 = (%v, %d), want hit at age 99", hit, age)
	}
	c.fill(7, 0) // reset recency bookkeeping at the same fill time
	if hit, _ := c.lookup(7, 100); hit {
		t.Fatal("lookup exactly at the TTL boundary hit; age == ttl must be stale")
	}
	st := c.stats()
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	// The expired entry was removed: the next lookup is a plain miss.
	if hit, _ := c.lookup(7, 101); hit {
		t.Fatal("expired entry still resident")
	}
	if st := c.stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 after post-expiry lookup", st.Misses)
	}
}

// TestClusterCacheDisabled: CacheEntries == 0 builds no cache at all —
// the accessors report it off, empty and idle.
func TestClusterCacheDisabled(t *testing.T) {
	c := buildAndRun(t, config.DefaultCluster(), 8, sim.FromSeconds(1e-3))
	if c.CacheEnabled() {
		t.Fatal("CacheEnabled with CacheEntries == 0")
	}
	if st := c.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache reported stats %+v, want zero", st)
	}
	if c.PeakPending() != 0 {
		t.Fatalf("disabled cache reported peak pending %d", c.PeakPending())
	}
}

// TestClusterCacheHitServes: with one content and a long TTL, every query
// after the first finds the merged result cached and completes from the
// front-end tier in exactly the configured hit latency, carrying a
// cache-hit interval in its timeline.
func TestClusterCacheHitServes(t *testing.T) {
	cfg := cachedConfig()
	const n = 8
	c := buildAndRun(t, cfg, n, sim.FromSeconds(1)) // gaps dwarf the scatter
	st := c.CacheStats()
	if st.Hits != n-1 || st.Misses != 1 || st.Lookups != n {
		t.Fatalf("cache stats %+v, want %d hits / 1 miss / %d lookups", st, n-1, n)
	}
	hitLat := sim.FromSeconds(cfg.CacheHitUS * 1e-6)
	for id := 1; id < n; id++ {
		q := c.QLog().Query(id)
		if q.Latency() != hitLat {
			t.Fatalf("hit query %d latency %v, want the hit latency %v", id, q.Latency(), hitLat)
		}
		if d := q.Dominant(); d.Phase != qtrace.PhaseCacheHit || len(q.Attribution) != 1 {
			t.Fatalf("hit query %d attribution %+v, want one %s interval", id, q.Attribution, qtrace.PhaseCacheHit)
		}
		if len(q.Intervals) != 1 || q.Intervals[0].Detail != detCacheHit {
			t.Fatalf("hit query %d intervals %+v, want one %q interval", id, q.Intervals, detCacheHit)
		}
	}
	if st.MeanServeAge <= 0 {
		t.Fatal("hits served but mean serve age is zero")
	}
}

// TestClusterCoalescedIdenticalResults: queries arriving while a scatter
// for their content is in flight attach to it and all complete together,
// the attach latency after the lead's merge — the backend saw exactly one
// scatter.
func TestClusterCoalescedIdenticalResults(t *testing.T) {
	cfg := cachedConfig()
	const n = 4
	c, err := New(cfg, testModel(), qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.SubmitAt(sim.Time(i) * sim.Microsecond) // all inside the lead's scatter
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Coalesced != n-1 || st.Hits != 0 {
		t.Fatalf("cache stats %+v, want %d coalesced and 0 hits", st, n-1)
	}
	lead := c.QLog().Query(0)
	attach := sim.FromSeconds(cfg.CoalesceUS * 1e-6)
	for id := 1; id < n; id++ {
		q := c.QLog().Query(id)
		if q.Done != lead.Done+attach {
			t.Fatalf("coalesced query %d done at %v, want lead merge %v + attach %v",
				id, q.Done, lead.Done, attach)
		}
		if len(q.Intervals) != 1 || q.Intervals[0].Detail != detCoalesce {
			t.Fatalf("coalesced query %d intervals %+v, want one %q interval", id, q.Intervals, detCoalesce)
		}
	}
	if c.PeakPending() != 1 {
		t.Fatalf("peak pending %d, want 1 (one content in flight)", c.PeakPending())
	}
}

// TestClusterCacheExpiredRefetch: a query arriving past the TTL finds the
// entry stale, counts as expired, and scatters like a cold miss.
func TestClusterCacheExpiredRefetch(t *testing.T) {
	cfg := cachedConfig()
	cfg.CacheTTLMS = 1 // expires long before the second arrival
	c, err := New(cfg, testModel(), qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.SubmitAt(0)
	c.SubmitAt(sim.FromSeconds(2))
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Expired != 1 || st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 expired / 0 hits / 1 miss", st)
	}
	// Both queries scattered: neither completed at the short hit latency.
	hitLat := sim.FromSeconds(cfg.CacheHitUS * 1e-6)
	for id := 0; id < 2; id++ {
		if lat := c.QLog().Query(id).Latency(); lat <= hitLat {
			t.Fatalf("query %d latency %v at or below the hit latency — served from a stale cache?", id, lat)
		}
	}
}

// TestClusterCacheResourceRegistered: the enabled cache joins the shared
// stats registry as a cache-kind resource whose utilization is the hit
// rate.
func TestClusterCacheResourceRegistered(t *testing.T) {
	c := buildAndRun(t, cachedConfig(), 8, sim.FromSeconds(1))
	res, ok := c.Engine().Stats().Lookup("cluster.fe.cache")
	if !ok {
		t.Fatal("cluster.fe.cache missing from the stats registry")
	}
	rs := res.ResourceStats()
	st := c.CacheStats()
	if rs.Kind != sim.KindCache {
		t.Fatalf("registered kind %q, want %q", rs.Kind, sim.KindCache)
	}
	if rs.Ops != st.Lookups || rs.Stalls != st.Misses+st.Expired {
		t.Fatalf("resource stats %+v disagree with cache stats %+v", rs, st)
	}
	if rs.Utilization != st.HitRate || rs.Occupancy != 1 || rs.MaxOccupancy != 1 {
		t.Fatalf("resource stats %+v, want hit-rate utilization and one resident entry", rs)
	}
}

// TestClusterCacheRunServesHitsAndCoalesces: with a small cache and
// closely spaced arrivals over the default Zipf content, the front end
// both serves hits and coalesces queries onto in-flight scatters.
func TestClusterCacheRunServesHitsAndCoalesces(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.CacheEntries = 8
	cs := buildAndRun(t, cfg, 24, sim.FromSeconds(5e-4)).CacheStats()
	if cs.Hits+cs.Coalesced == 0 {
		t.Fatalf("cache-on run exercised neither hits nor coalescing: %+v", cs)
	}
}
