package main

import (
	"io"
	"strings"
	"testing"
)

// TestClusterRunCacheRows: with the front-end result cache enabled, the
// pinned -cluster run's summary table carries the cache accounting rows.
func TestClusterRunCacheRows(t *testing.T) {
	var out strings.Builder
	if err := runCluster(&out, io.Discard, clusterOptions{cache: 32}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cache hit rate %") {
		t.Fatalf("cache-on run emitted no cache rows:\n%s", out.String())
	}
}
