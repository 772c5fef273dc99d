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
	const want = "8a4ff0cba2facb739c6b916e41009d7ff8f341343fa0ee37ce61b54d05d9629e"
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
