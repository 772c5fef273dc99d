package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestOutOfRangeFlagsExitOne checks that each out-of-range flag exits 1
// with one line naming it, before anything is built or printed. Each of
// these used to panic or, for -candidates 0, report recall 0.
func TestOutOfRangeFlagsExitOne(t *testing.T) {
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"-n", "0"}, "-n "},
		{[]string{"-n", "-5"}, "-n "},
		{[]string{"-clusters", "0"}, "-clusters "},
		{[]string{"-n", "100", "-clusters", "200"}, "-clusters "},
		{[]string{"-batch", "0"}, "-batch "},
		{[]string{"-probes", "0"}, "-probes "},
		{[]string{"-probes", "65"}, "-probes "},
		{[]string{"-candidates", "0"}, "-candidates "},
		{[]string{"-k", "0"}, "-k "},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := cli(c.args, &stdout, &stderr)
		msg := strings.TrimSuffix(stderr.String(), "\n")
		if code != 1 || strings.Contains(msg, "\n") || !strings.Contains(msg, c.flag) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 and one line naming %s", c.args, code, stderr.String(), c.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting the flag", c.args, stdout.String())
		}
	}
}

// TestDefaultRunPinned pins the default run's stdout: the index, the
// recall line and the Fig 13 table.
func TestDefaultRunPinned(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cli(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("default run exited %d: %s", code, stderr.String())
	}
	const want = "2cd9e3e72e6836056f176e91e3a2aeae645da28b7dda83a97870d5d2bcf2026a"
	if sum := sha256.Sum256(stdout.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Errorf("default stdout sha256 %x, want %s:\n%s", sum, want, stdout.String())
	}
}
