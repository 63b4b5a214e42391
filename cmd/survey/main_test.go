package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// TestResumeReprintsEverything: a checkpointed survey wound back to its
// first unit, as if killed there, and resumed prints what an
// uninterrupted plain run printed — summary, tables and every figure —
// and leaves the same record log and atlas, because every output is a
// fold over the records and the merge folds every shard.
func TestResumeReprintsEverything(t *testing.T) {
	for _, c := range []struct {
		level string
		args  []string
	}{
		{"ip", []string{"-pairs", "150"}},
		{"router", []string{"-pairs", "200", "-rounds", "2"}},
	} {
		c := c
		t.Run(c.level, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			out, work, snap := filepath.Join(dir, "r.jsonl"), filepath.Join(dir, "r.work"), filepath.Join(dir, "r.atlas")
			args := append([]string{"-level", c.level, "-seed", "2", "-workers", "2", "-figs", "-out", out, "-atlas", snap}, c.args...)
			code, wantStdout, stderr := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("uninterrupted run exited %d: %s", code, stderr)
			}
			wantJSONL, wantAtlas := readFile(t, out), readFile(t, snap)
			args = append(args, "-checkpoint", work)
			if code, _, stderr := runCLI(t, args...); code != 0 {
				t.Fatalf("checkpointed run exited %d: %s", code, stderr)
			}

			// Wind the manifest back to its first unit, as if the run had
			// been killed there, and drop the later shards.
			path := filepath.Join(work, "manifest.json")
			m, err := traceio.ReadFleetManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Units) < 2 {
				t.Fatalf("%d units: the survey is too small to wind back", len(m.Units))
			}
			for i := range m.Units[1:] {
				u := &m.Units[1+i]
				if err := os.Remove(filepath.Join(work, u.Shard)); err != nil {
					t.Fatal(err)
				}
				u.State, u.Shard, u.Records = traceio.UnitUnclaimed, "", 0
			}
			if err := m.WriteAtomic(path); err != nil {
				t.Fatal(err)
			}
			os.Remove(out)
			os.Remove(snap)

			code, gotStdout, stderr := runCLI(t, append(args, "-resume", "-progress")...)
			if code != 0 {
				t.Fatalf("resumed run exited %d: %s", code, stderr)
			}
			if want := "resumed 1 shipped units (64 records)"; !strings.Contains(stderr, want) {
				t.Fatalf("the run did not resume its first unit (want %q):\n%s", want, stderr)
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

// TestCheckpointMatchesPlainRun: a checkpointed run prints what a plain
// run prints and writes the same record log and atlas, seeded from a
// prior or not, and it needs no -out: the shards are its durable record.
func TestCheckpointMatchesPlainRun(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	first := filepath.Join(dir, "first.atlas")
	if code, _, stderr := runCLI(t, "-pairs", "80", "-seed", "4", "-atlas", first); code != 0 {
		t.Fatalf("first pass exited %d: %s", code, stderr)
	}
	out, snap := filepath.Join(dir, "r.jsonl"), filepath.Join(dir, "r.atlas")
	for _, extra := range [][]string{nil, {"-prior", first}} {
		args := append([]string{"-pairs", "80", "-seed", "4", "-workers", "2", "-figs", "-out", out, "-atlas", snap}, extra...)
		code, wantStdout, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: plain run exited %d: %s", extra, code, stderr)
		}
		wantJSONL, wantAtlas := readFile(t, out), readFile(t, snap)
		os.Remove(out)
		os.Remove(snap)
		work := filepath.Join(t.TempDir(), "work")
		code, gotStdout, stderr := runCLI(t, append(args, "-checkpoint", work)...)
		if code != 0 {
			t.Fatalf("%v: checkpointed run exited %d: %s", extra, code, stderr)
		}
		if gotStdout != wantStdout {
			t.Errorf("%v: checkpointed stdout differs:\n%s\nplain:\n%s", extra, gotStdout, wantStdout)
		}
		if !bytes.Equal(readFile(t, out), wantJSONL) || !bytes.Equal(readFile(t, snap), wantAtlas) {
			t.Errorf("%v: checkpointed record log or atlas differs from the plain run's", extra)
		}
	}
	if code, _, stderr := runCLI(t, "-pairs", "80", "-seed", "4", "-checkpoint", filepath.Join(dir, "bare")); code != 0 {
		t.Fatalf("checkpointed run without -out exited %d: %s", code, stderr)
	}
}

// TestOldCheckpointRefused: -checkpoint naming a file, as an older
// survey's checkpoint did, is a usage error that names the new form and
// leaves the file as it was.
func TestOldCheckpointRefused(t *testing.T) {
	t.Parallel()
	ckpt := filepath.Join(t.TempDir(), "r.ckpt")
	old := []byte(`{"version":1,"kind":"survey","options_hash":1,"seed":2,"total":40,"done":8,"offset":6502}` + "\n")
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-pairs", "4", "-checkpoint", ckpt, "-resume")
	if code != 2 || !strings.Contains(stderr, "-checkpoint now names a directory") {
		t.Fatalf("exit %d, stderr %q; want 2 and the new form named", code, stderr)
	}
	if !bytes.Equal(readFile(t, ckpt), old) {
		t.Error("the refused checkpoint file was modified")
	}
}

// TestUsageErrors: every usage error exits 2 before anything is
// created — no record log, work directory, atlas or profile — and, where the
// row names one, says so. Every row also sets -pairs, -cpuprofile and
// -memprofile, so a mode refusing flags it does not read lists them too.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // in stderr, when not empty
	}{
		{"resume without checkpoint", []string{"-resume", "-out", "o.jsonl"}, "-resume requires -checkpoint"},
		{"prior at router level", []string{"-level", "router", "-prior", "p.atlas"}, ""},
		{"publish without atlas", []string{"-atlas-publish-every", "5"}, ""},
		{"unknown level", []string{"-level", "as", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"negative pairs", []string{"-pairs", "-1", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"negative rounds", []string{"-level", "router", "-rounds", "-1", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"phi below the minimum", []string{"-phi", "1", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"atlas shards", []string{"-atlas-shards", "4", "-out", "o.jsonl", "-atlas", "a.atlas"}, ""},
		{"negative checkpoint interval", []string{"-out", "o.jsonl", "-checkpoint", "c.work", "-checkpoint-every", "-5"},
			"flag provided but not defined: -checkpoint-every"},
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
		{"checkpoint interval without checkpoint", []string{"-checkpoint-every", "3"}, "flag provided but not defined: -checkpoint-every"},
		{"publish with checkpoint", []string{"-checkpoint", "c.work", "-atlas", "a.atlas", "-atlas-publish-every", "3"},
			"-atlas-publish-every does not apply with -checkpoint"},
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
