package main

import (
	"bytes"
	"strings"
	"testing"

	"mmlpt/internal/experiments"
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

// TestSec3: -sec3 runs the Sec 3 Fakeroute validation alone, 10×200
// runs per scale step under -seed, against the exact 0.03125 prediction.
func TestSec3(t *testing.T) {
	t.Parallel()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sec3", "-seed", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want := experiments.FormatSec3(experiments.Sec3Validation(experiments.Sec3Config{Samples: 10, RunsPerSample: 200, Seed: 2})) + "\n"
	if stdout.String() != want {
		t.Errorf("-sec3 -seed 2 printed\n%s\nwant\n%s", stdout.String(), want)
	}
	if !strings.HasPrefix(want, "# Sec 3 Fakeroute validation (10 samples x 200 runs)\npredicted_failure 0.03125\n") {
		t.Errorf("the validation no longer runs the simplest diamond at scale 1:\n%s", want)
	}
}
