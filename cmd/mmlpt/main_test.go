package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"mmlpt"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
	"mmlpt/internal/pin"
	"mmlpt/internal/survey"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// runsContent renders what a -out file means: per run, the scalar
// fields, the graph as hop-major address lists plus successor indices in
// hop-major numbering, and the sorted alias sets.
func runsContent(t *testing.T, jsonl []byte) string {
	t.Helper()
	var b strings.Builder
	run := 0
	err := traceio.DecodeSurveyRecords(bytes.NewReader(jsonl), func(r *traceio.SurveyRecord) error {
		if r.PairIndex != run {
			return fmt.Errorf("record %d carries run index %d", run, r.PairIndex)
		}
		fmt.Fprintf(&b, "run %d src=%s dst=%s algorithm=%s probes=%d reached=%t switched=%t alias_probes=%d\n",
			run, r.Src, r.Dst, r.Algorithm, r.Probes, r.Reached, r.Switched, r.AliasProbes)
		run++
		g, err := r.Graph()
		if err != nil {
			return err
		}
		index := map[topo.VertexID]int{}
		var order []topo.VertexID
		for h := 0; h < g.NumHops(); h++ {
			fmt.Fprintf(&b, "hop %d:", h)
			for _, id := range g.Hop(h) {
				index[id] = len(order)
				order = append(order, id)
				if a := g.V(id).Addr; a == topo.StarAddr {
					b.WriteString(" *")
				} else {
					fmt.Fprintf(&b, " %s", a)
				}
			}
			b.WriteByte('\n')
		}
		for k, id := range order {
			fmt.Fprintf(&b, "succ %d:", k)
			for _, w := range g.Succ(id) {
				fmt.Fprintf(&b, " %d", index[w])
			}
			b.WriteByte('\n')
		}
		var routers []string
		for _, set := range r.Routers {
			s := append([]packet.Addr(nil), set...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			line := "router:"
			for _, a := range s {
				line += " " + a.String()
			}
			routers = append(routers, line)
		}
		sort.Strings(routers)
		for _, line := range routers {
			fmt.Fprintln(&b, line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRunsJSONLDigests pins -out's bytes and its runsContent rendering.
func TestRunsJSONLDigests(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ algo, shape string }{
		{"mda-lite", "symmetric"},
		{"multilevel", "fig1"},
	} {
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
		name := "cmd/mmlpt/" + c.algo + "/" + c.shape
		pin.Check(t, name+"/content", []byte(runsContent(t, data)))
		pin.Check(t, name+"/out", data)
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

// TestUsageErrors: a value that would trace something other than what
// was asked for is refused with exit 2 before any tracing, and -out
// creates no file.
func TestUsageErrors(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"failure bound above one", []string{"-failure-bound", "1.5"}},
		{"failure bound of one", []string{"-failure-bound", "1"}},
		{"negative failure bound", []string{"-failure-bound", "-0.1"}},
		{"phi below the minimum", []string{"-phi", "1"}},
		{"negative phi", []string{"-phi", "-5"}},
		{"positional argument", []string{"-shape", "fig1", "extra"}},
		{"unknown shape", []string{"-shape", "nosuch"}},
		{"unknown algorithm", []string{"-algo", "nosuch"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := append([]string{"-runs", "2", "-out", filepath.Join(dir, "o.jsonl")}, c.args...)
			code, stdout, stderr := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, stdout, stderr)
			}
			if stderr == "" {
				t.Error("no usage message")
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("a usage error left %s behind", ents[0].Name())
			}
		})
	}
}

// TestAlgoNamesAreRecordNames: -algo takes the names a survey record's
// algorithm field carries, and the -json record of a -seed run is the
// record of the library trace under that seed, whose probes field
// counts every packet the prober sent, alias probes included.
func TestAlgoNamesAreRecordNames(t *testing.T) {
	t.Parallel()
	src, dst := mmlpt.MustParseAddr("192.0.2.1"), mmlpt.MustParseAddr("198.51.100.77")
	var names []string
	for a, algo := range algorithms {
		name := survey.Algo(a).String()
		names = append(names, name)
		code, stdout, stderr := runCLI(t, "-shape", "fig1", "-algo", name, "-seed", "7", "-json")
		if code != 0 {
			t.Fatalf("-algo %s: exit %d: %s", name, code, stderr)
		}
		var got *traceio.SurveyRecord
		err := traceio.DecodeSurveyRecords(strings.NewReader(stdout), func(r *traceio.SurveyRecord) error {
			got = r
			return nil
		})
		if err != nil || got == nil {
			t.Fatalf("-algo %s: no record in %q: %v", name, stdout, err)
		}
		if got.Algorithm != name {
			t.Errorf("-algo %s writes algorithm %q", name, got.Algorithm)
		}

		net, _ := mmlpt.BuildScenario(7, src, dst, fakeroute.Shapes["fig1"])
		p := mmlpt.NewSimProber(net, src, dst)
		var want bytes.Buffer
		if err := record(src, dst, name, mmlpt.Trace(p, mmlpt.Options{Algorithm: algo, Seed: 7})).WriteJSONL(&want); err != nil {
			t.Fatal(err)
		}
		if trace, echo := p.Sent(); got.Probes != trace+echo || (name == "multilevel") != (got.AliasProbes > 0) {
			t.Errorf("-algo %s: probes %d with %d alias probes; the prober sent %d trace and %d echo probes", name, got.Probes, got.AliasProbes, trace, echo)
		}
		if stdout != want.String() {
			t.Errorf("-algo %s -seed 7 -json:\n%s\nlibrary trace under seed 7:\n%s", name, stdout, want.String())
		}
	}
	if want := []string{"mda", "mda-lite", "single-flow", "multilevel"}; !slices.Equal(names, want) {
		t.Errorf("-algo names %v, want %v", names, want)
	}
	code, _, stderr := runCLI(t, "-algo", "single")
	if code != 2 || !strings.Contains(stderr, "single-flow") {
		t.Errorf("-algo single: exit %d, stderr %q; want exit 2 listing the valid names", code, stderr)
	}
}

// TestVerbosePrintsGroundTruth: -v prints the simulated topology ahead
// of the trace.
func TestVerbosePrintsGroundTruth(t *testing.T) {
	t.Parallel()
	code, stdout, stderr := runCLI(t, "-shape", "fig1", "-v")
	if code != 0 || !strings.HasPrefix(stdout, "ground truth (fig1):\n") || !strings.Contains(stdout, "algo=mda-lite") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want the ground truth, then the trace", code, stdout, stderr)
	}
	_, plain, _ := runCLI(t, "-shape", "fig1")
	if !strings.HasSuffix(stdout, plain) {
		t.Errorf("-v changes the trace output:\n%s\nwithout -v:\n%s", stdout, plain)
	}
}

// TestTopologyFile: -topology traces the graph a topology file
// describes, and a file that does not exist is a runtime error.
func TestTopologyFile(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "diamond.topo")
	topology := "hop 0: 10.9.0.1\nhop 1: 10.9.0.2 10.9.0.3\nhop 2: 10.9.0.4\n" +
		"edge 10.9.0.1 10.9.0.2\nedge 10.9.0.1 10.9.0.3\nedge 10.9.0.2 10.9.0.4\nedge 10.9.0.3 10.9.0.4\n"
	if err := os.WriteFile(path, []byte(topology), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-topology", path, "-algo", "mda")
	if code != 0 || !strings.Contains(stdout, "reached=true") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want a trace that reaches the destination", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "diamond 0: 10.9.0.1..10.9.0.4 len=2 width=2") {
		t.Errorf("the trace misses the file's diamond:\n%s", stdout)
	}
	if code, _, stderr := runCLI(t, "-topology", filepath.Join(t.TempDir(), "missing.topo")); code != 1 || stderr == "" {
		t.Errorf("missing topology file: exit %d, stderr %q; want exit 1", code, stderr)
	}
}
