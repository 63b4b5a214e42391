package main

import (
	"bytes"
	"net"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: every usage error exits 2 before the snapshot is
// opened. The snapshot path names no file, so a run that got as far
// as opening it would exit 1 instead.
func TestUsageErrors(t *testing.T) {
	t.Parallel()
	missing := filepath.Join(t.TempDir(), "missing.atlas")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"no snapshot", []string{"-listen", "127.0.0.1:0"}},
		{"negative cache", []string{"-snapshot", missing, "-cache", "-3", "-listen", "127.0.0.1:0"}},
		{"unknown flag", []string{"-snapshot", missing, "-shards", "3"}},
		{"positional argument", []string{"-snapshot", missing, "-listen", "127.0.0.1:0", "extra"}},
	} {
		var stderr bytes.Buffer
		if code := run(c.args, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", c.name, code, stderr.String())
		} else if stderr.Len() == 0 {
			t.Errorf("%s: no error message", c.name)
		}
	}
}

// TestBusyListen: an address that cannot be bound exits 1 without
// claiming to serve.
func TestBusyListen(t *testing.T) {
	t.Parallel()
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	snap := testSnapshot(t)
	for _, listen := range []string{busy.Addr().String(), "nope"} {
		var stderr bytes.Buffer
		if code := run([]string{"-snapshot", snap, "-listen", listen}, &stderr); code != 1 {
			t.Errorf("-listen %s: exit %d, want 1 (stderr %q)", listen, code, stderr.String())
		}
		if strings.Contains(stderr.String(), "serving") {
			t.Errorf("-listen %s: claimed to serve: %q", listen, stderr.String())
		}
	}
}
