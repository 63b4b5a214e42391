package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mmlpt/internal/dispatch"
	"mmlpt/internal/traceio"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestResumeReprintsEverything: a survey resumed from a checkpoint
// mid-log prints what the uninterrupted run printed — summary, Table 3
// and every figure — and leaves the same record log and atlas, because
// every output is a fold over the records and resume replays them.
func TestResumeReprintsEverything(t *testing.T) {
	for _, c := range []struct {
		level string
		args  []string
	}{
		{"ip", []string{"-pairs", "40"}},
		{"router", []string{"-pairs", "30", "-rounds", "2"}},
	} {
		c := c
		t.Run(c.level, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			out, ckpt, snap := filepath.Join(dir, "r.jsonl"), filepath.Join(dir, "r.ckpt"), filepath.Join(dir, "r.atlas")
			args := append([]string{"-level", c.level, "-seed", "2", "-workers", "2", "-figs",
				"-out", out, "-checkpoint", ckpt, "-checkpoint-every", "4", "-atlas", snap}, c.args...)
			code, wantStdout, stderr := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("uninterrupted run exited %d: %s", code, stderr)
			}
			wantJSONL, wantAtlas := readFile(t, out), readFile(t, snap)

			// Wind the checkpoint back to record k, as if the run had been
			// killed there.
			lines := bytes.SplitAfter(wantJSONL, []byte("\n"))
			k := len(lines) / 2
			ck, err := traceio.ReadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			ck.Done, ck.Offset = k, int64(len(bytes.Join(lines[:k], nil)))
			if err := ck.WriteAtomic(ckpt); err != nil {
				t.Fatal(err)
			}

			code, gotStdout, stderr := runCLI(t, append(args, "-resume", "-progress")...)
			if code != 0 {
				t.Fatalf("resumed run exited %d: %s", code, stderr)
			}
			if !strings.Contains(stderr, "("+strconv.Itoa(k)+" resumed from checkpoint)") {
				t.Fatalf("the run did not resume from record %d:\n%s", k, stderr)
			}
			if strings.Contains(stderr, "warning:") {
				t.Errorf("resumed run warns:\n%s", stderr)
			}
			if gotStdout != wantStdout {
				t.Errorf("resumed stdout differs:\n%s\nuninterrupted:\n%s", gotStdout, wantStdout)
			}
			if !strings.Contains(gotStdout, "# Fig") || !strings.Contains(gotStdout, "probes:") {
				t.Errorf("stdout lacks the figures or the summary:\n%s", gotStdout)
			}
			if !bytes.Equal(readFile(t, out), wantJSONL) {
				t.Error("resumed record log differs from the uninterrupted one")
			}
			if !bytes.Equal(readFile(t, snap), wantAtlas) {
				t.Error("resumed atlas differs from the uninterrupted one")
			}
		})
	}
}

// TestUsageErrors: every usage error exits 2 before anything is
// created — no record log, checkpoint, atlas or profile — and, where the
// row names one, says so. Every row also sets -pairs, -cpuprofile and
// -memprofile, so a mode refusing flags it does not read lists them too.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // in stderr, when not empty
	}{
		{"resume without checkpoint", []string{"-resume", "-out", "o.jsonl"}, ""},
		{"resume without out", []string{"-resume", "-checkpoint", "c.ckpt"}, ""},
		{"prior at router level", []string{"-level", "router", "-prior", "p.atlas"}, ""},
		{"publish without atlas", []string{"-atlas-publish-every", "5"}, ""},
		{"unknown level", []string{"-level", "as", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"negative pairs", []string{"-pairs", "-1", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"negative rounds", []string{"-level", "router", "-rounds", "-1", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"phi below the minimum", []string{"-phi", "1", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"atlas shards", []string{"-atlas-shards", "4", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"negative checkpoint interval", []string{"-out", "o.jsonl", "-checkpoint", "c.ckpt", "-checkpoint-every", "-5"}, ""},
		{"negative publish interval", []string{"-atlas", "a.atlas", "-atlas-publish-every", "-2"}, ""},
		{"negative max units", []string{"-join", "http://localhost:1", "-max-units", "-1"}, ""},
		{"runner id without join", []string{"-runner-id", "x", "-out", "o.jsonl"}, ""},
		{"max units without join", []string{"-max-units", "3", "-out", "o.jsonl"}, ""},
		{"live dests without live src", []string{"-live-dests", "198.51.100.1"}, ""},
		{"live src without live dests", []string{"-live-src", "192.0.2.10", "-out", "o.jsonl"}, ""},
		{"join with survey flags", []string{"-join", "http://127.0.0.1:1", "-out", "j.jsonl", "-figs"},
			"-cpuprofile -figs -memprofile -out -pairs: not read with -join, which reads only -join -runner-id -max-units -workers"},
		{"live with survey flags", []string{"-live-src", "192.0.2.10", "-live-dests", "198.51.100.1", "-atlas", "a.atlas", "-workers", "2"},
			"-atlas -cpuprofile -memprofile -pairs -workers: not read with -live-dests, which reads only -live-dests -live-src -phi -seed -figs"},
		{"checkpoint interval without checkpoint", []string{"-checkpoint-every", "3"}, "-checkpoint-every requires -checkpoint"},
		{"checkpoint without out", []string{"-checkpoint", "c.ckpt"}, "-checkpoint requires -out"},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := []string{"-pairs", "4",
				"-cpuprofile", filepath.Join(dir, "cpu.prof"), "-memprofile", filepath.Join(dir, "mem.prof")}
			for _, a := range c.args {
				if strings.Contains(a, ".") {
					a = filepath.Join(dir, a)
				}
				args = append(args, a)
			}
			code, stdout, stderr := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, stdout, stderr)
			}
			if stderr == "" || !strings.Contains(stderr, c.want) {
				t.Errorf("usage message %q, want one containing %q", stderr, c.want)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("a usage error left %s behind", ents[0].Name())
			}
		})
	}
}

// TestJoinRunsNamedRunner: -join makes the process a fleet runner that
// claims under its -runner-id, and -max-units stops it after that many
// units although the survey has more.
func TestJoinRunsNamedRunner(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
		Spec: dispatch.Spec{Level: "ip", Pairs: 10, Seed: 3},
		Dir:  dir, OutJSONL: filepath.Join(dir, "merged.jsonl"), UnitSize: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	code, stdout, stderr := runCLI(t, "-join", srv.URL, "-runner-id", "named", "-max-units", "1", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d (stdout %q, stderr %q)", code, stdout, stderr)
	}
	st := coord.Status()
	if st.Shipped+st.Merged != 1 || st.Done {
		t.Errorf("after one unit: %s", st)
	}
	if len(st.Runners) != 1 || st.Runners[0].ID != "named" || st.Runners[0].Units != 1 {
		t.Errorf("runners %+v, want one runner \"named\" with 1 unit", st.Runners)
	}
}

// TestLiveAddressErrors: a malformed -live-src or -live-dests address
// is a runtime error, exit 1, reported before any socket opens.
func TestLiveAddressErrors(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-live-src", "192.0.2", "-live-dests", "198.51.100.1"},
		{"-live-src", "192.0.2.10", "-live-dests", "198.51.100.1,bogus"},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 1 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and only an error", args, code, stdout, stderr)
		}
	}
}

// TestRuntimeErrorKeepsProfile: a run that fails after profiling started
// still leaves a CPU profile pprof can read, not an empty file.
func TestRuntimeErrorKeepsProfile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	code, _, stderr := runCLI(t, "-cpuprofile", prof, "-prior", filepath.Join(dir, "missing.atlas"))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile after a runtime error: %v, %v", st, err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
