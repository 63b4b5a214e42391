package main

import (
	"bytes"
	"testing"
)

// TestUsageErrors: a figure or table the evaluation does not list, a
// non-positive -scale, no selection at all or a stray argument exits 2
// before any work and prints nothing to stdout.
func TestUsageErrors(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"no selection", nil},
		{"unlisted figure", []string{"-fig", "6"}},
		{"negative figure", []string{"-fig", "-1"}},
		{"unlisted table", []string{"-table", "9"}},
		{"negative scale", []string{"-scale", "-3", "-fig", "1"}},
		{"zero scale", []string{"-scale", "0", "-all"}},
		{"positional argument", []string{"-fig", "2", "extra"}},
		{"unknown flag", []string{"-figure", "2"}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, stdout.String(), stderr.String())
			}
			if stderr.Len() == 0 || stdout.Len() != 0 {
				t.Errorf("stdout %q, stderr %q; want only a usage message", stdout.String(), stderr.String())
			}
		})
	}
}
