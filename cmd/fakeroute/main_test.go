package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrors: a failure bound the stopping-point table cannot be
// built from, an unknown shape or a stray argument exits 2 with a
// message and prints no result.
func TestUsageErrors(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"failure bound above one", []string{"-failure-bound", "1.5"}},
		{"failure bound of one", []string{"-failure-bound", "1"}},
		{"failure bound of zero", []string{"-failure-bound", "0"}},
		{"unknown shape", []string{"-shape", "nosuch"}},
		{"positional argument", []string{"-predict-only", "extra"}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			code, stdout, stderr := runCLI(t, c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, stdout, stderr)
			}
			if stderr == "" || stdout != "" {
				t.Errorf("stdout %q, stderr %q; want only a usage message", stdout, stderr)
			}
		})
	}
}

// TestPredictOnly: the exact prediction for the simplest diamond under
// the default 95% table is 2⁻⁵ (Sec 3).
func TestPredictOnly(t *testing.T) {
	t.Parallel()
	code, stdout, stderr := runCLI(t, "-shape", "simplest", "-predict-only")
	if code != 0 || !strings.Contains(stdout, "predicted MDA failure probability 0.031250") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want the 0.031250 prediction", code, stdout, stderr)
	}
}
