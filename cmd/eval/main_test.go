package main

import (
	"bytes"
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

// TestUsageErrors: a value that would silently evaluate something other
// than what was asked for exits 2 before any work, and -out creates no
// file.
func TestUsageErrors(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"non-positive seeds", []string{"-seeds", "0"}},
		{"negative seeds", []string{"-seeds", "-2"}},
		{"phi below the minimum", []string{"-phi", "1"}},
		{"unknown tracer", []string{"-tracer", "nosuch"}},
		{"unknown scenario", []string{"-scenarios", "nosuch"}},
		{"positional argument", []string{"extra"}},
		{"positional argument after list", []string{"-list", "extra"}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := append([]string{"-out", filepath.Join(dir, "e.jsonl")}, c.args...)
			code, stdout, stderr := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, stdout, stderr)
			}
			if stderr == "" || stdout != "" {
				t.Errorf("stdout %q, stderr %q; want only a usage message", stdout, stderr)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("a usage error left %s behind", ents[0].Name())
			}
		})
	}
}

// TestList: -list names every scenario of the suite and runs nothing.
func TestList(t *testing.T) {
	t.Parallel()
	code, stdout, stderr := runCLI(t, "-list")
	if code != 0 || !strings.Contains(stdout, "pairs=") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want the scenario list", code, stdout, stderr)
	}
}
