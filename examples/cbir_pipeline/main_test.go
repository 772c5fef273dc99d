package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRunPinned pins the example's stdout, and a second run must
// reproduce every byte.
func TestRunPinned(t *testing.T) {
	const want = "34abb42ebba341e2c4d84b49410e52a3f1826f51eb18a1645feef9d4d2c9601d"
	for i := 1; i <= 2; i++ {
		var out bytes.Buffer
		if err := run(&out); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("run %d stdout sha256 %s, want %s:\n%s", i, got, want, out.String())
		}
	}
}
