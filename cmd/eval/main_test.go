package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
		{"unknown scenario", []string{"-scenarios", "nosuch"}},
		{"positional argument", []string{"extra"}},
		{"positional argument after list", []string{"-list", "extra"}},
	} {
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

// TestSeedAndGolden: -seed picks the instances, so equal seeds write
// equal records and another seed other ones; -golden passes against the
// run's own -out and fails, exit 1, once one metric in it drifts.
func TestSeedAndGolden(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	evalOut := func(seed, name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		code, _, stderr := runCLI(t, "-scenarios", "flow-narrow", "-seeds", "1", "-seed", seed, "-out", path)
		if code != 0 {
			t.Fatalf("-seed %s: exit %d: %s", seed, code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	golden := evalOut("4", "golden.jsonl")
	if again := evalOut("4", "again.jsonl"); !bytes.Equal(again, golden) {
		t.Error("two runs under -seed 4 wrote different records")
	}
	if other := evalOut("5", "other.jsonl"); bytes.Equal(other, golden) {
		t.Error("-seed 5 wrote the records of -seed 4")
	}

	compare := func(path string) (int, string, string) {
		return runCLI(t, "-scenarios", "flow-narrow", "-seeds", "1", "-seed", "4", "-golden", path)
	}
	if code, stdout, stderr := compare(filepath.Join(dir, "golden.jsonl")); code != 0 || !strings.Contains(stdout, "golden compare OK") {
		t.Fatalf("against its own records: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	// Double the MDA's probe count, far beyond the probe tolerance.
	m := regexp.MustCompile(`"probes":(\d+)`).FindSubmatchIndex(golden)
	if m == nil {
		t.Fatalf("no probe count in %s", golden)
	}
	n, _ := strconv.Atoi(string(golden[m[2]:m[3]]))
	drifted := filepath.Join(dir, "drifted.jsonl")
	data := append(append(append([]byte(nil), golden[:m[2]]...), strconv.Itoa(2*n)...), golden[m[3]:]...)
	if err := os.WriteFile(drifted, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := compare(drifted); code != 1 || !strings.Contains(stderr, "golden compare FAILED") {
		t.Errorf("against a drifted golden: exit %d, stderr %q; want exit 1 naming the drift", code, stderr)
	}
}
