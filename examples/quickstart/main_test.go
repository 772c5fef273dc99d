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
	const want = "958fd79bb9e727c82cefee64496a60f2822ae5d840f9b197bb15be74a5fc4367"
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
