package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

func testSnapshot(t *testing.T) string {
	t.Helper()
	// One pair's diamond: .1 → {.2, .3} → .4, with .2 and .3 aliased.
	g := topo.New()
	v1 := g.AddVertex(1, packet.MustParseAddr("10.0.0.1"))
	v2 := g.AddVertex(2, packet.MustParseAddr("10.0.0.2"))
	v3 := g.AddVertex(2, packet.MustParseAddr("10.0.0.3"))
	v4 := g.AddVertex(3, packet.MustParseAddr("10.0.0.4"))
	g.AddEdge(v1, v2)
	g.AddEdge(v1, v3)
	g.AddEdge(v2, v4)
	g.AddEdge(v3, v4)
	a := atlas.New(atlas.Options{})
	a.AddGraph(0, g)
	a.AddAliasSet([]packet.Addr{packet.MustParseAddr("10.0.0.2"), packet.MustParseAddr("10.0.0.3")})
	a.AddDiamond(0, traceio.SurveyDiamond{Div: "10.0.0.1", Conv: "10.0.0.4", MaxWidth: 2, MaxLength: 2})
	a.AddPair(0, "192.0.2.1", "203.0.113.1")
	path := filepath.Join(t.TempDir(), "t.atlas")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSubcommands(t *testing.T) {
	t.Parallel()
	path := testSnapshot(t)

	code, out, _ := runCLI(t, "stats", path)
	if code != 0 || !strings.Contains(out, "4 addresses") || !strings.Contains(out, "1 routers") {
		t.Fatalf("stats: code=%d out=%q", code, out)
	}

	code, out, _ = runCLI(t, "routers", path)
	if code != 0 || out != "router[2] 10.0.0.2 10.0.0.3\n" {
		t.Fatalf("routers: code=%d out=%q", code, out)
	}

	// By member and by representative; singleton for unaliased.
	for _, a := range []string{"10.0.0.2", "10.0.0.3"} {
		code, out, _ = runCLI(t, "router", a, path)
		if code != 0 || out != "router[2] 10.0.0.2 10.0.0.3\n" {
			t.Fatalf("router %s: code=%d out=%q", a, code, out)
		}
	}
	code, out, _ = runCLI(t, "router", "10.0.0.1", path)
	if code != 0 || out != "router[1] 10.0.0.1\n" {
		t.Fatalf("router singleton: code=%d out=%q", code, out)
	}

	code, out, _ = runCLI(t, "census", path)
	if code != 0 || !strings.Contains(out, "10.0.0.1 10.0.0.4 1 1 2 2") {
		t.Fatalf("census: code=%d out=%q", code, out)
	}

	code, out, _ = runCLI(t, "addr", "10.0.0.2", path)
	if code != 0 || out != "10.0.0.2 pair 0 hop 2\n" {
		t.Fatalf("addr: code=%d out=%q", code, out)
	}
}

// Querying an absent address exits non-zero with a clear error.
func TestAbsentAddressErrors(t *testing.T) {
	t.Parallel()
	path := testSnapshot(t)
	for _, args := range [][]string{
		{"addr", "10.9.9.9", path},
		{"router", "10.9.9.9", path},
	} {
		code, out, errOut := runCLI(t, args...)
		if code != 1 {
			t.Fatalf("%v: code = %d, want 1", args, code)
		}
		if out != "" {
			t.Fatalf("%v: stdout = %q, want empty", args, out)
		}
		if !strings.Contains(errOut, "not in atlas") {
			t.Fatalf("%v: stderr = %q", args, errOut)
		}
	}
	// Malformed address, or one not in its canonical text: usage
	// error, not a query miss (nor an answer for 10.0.0.2).
	for _, args := range [][]string{
		{"addr", "bogus", path},
		{"addr", "010.0.0.2", path},
		{"router", "0000000010.0.0.2", path},
		{"addr", "1.2.3.04", path},
	} {
		if code, out, _ := runCLI(t, args...); code != 2 || out != "" {
			t.Fatalf("%v: code = %d, stdout %q, want 2 and nothing", args, code, out)
		}
	}
}

// The pre-subcommand flag style is gone: a first argument that is not a
// subcommand — an old flag, or a bare snapshot path — prints usage and
// exits 2 without touching the file.
func TestLegacyFlagsAreUsageErrors(t *testing.T) {
	t.Parallel()
	path := testSnapshot(t)
	for _, args := range [][]string{
		{"-stats", path},
		{"-routers", path},
		{"-census", path},
		{"-addr", "10.0.0.2", path},
		{path},
		{"frobnicate", path},
	} {
		code, out, errOut := runCLI(t, args...)
		if code != 2 || out != "" || !strings.Contains(errOut, "usage:") {
			t.Fatalf("%v: code=%d stdout=%q stderr=%q, want usage on stderr and exit 2", args, code, out, errOut)
		}
	}
}

// verify exits 0 printing the header stats on a good file, and 1 naming
// what failed on a truncated one.
func TestVerifySubcommand(t *testing.T) {
	t.Parallel()
	path := testSnapshot(t)
	code, out, errOut := runCLI(t, "verify", path)
	if code != 0 || !strings.Contains(out, "ok (atlas: 1 pairs, 4 addresses, 4 links, 1 routers, 1 distinct diamonds)") {
		t.Fatalf("verify: code=%d out=%q stderr=%q", code, out, errOut)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.atlas")
	if err := os.WriteFile(cut, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut = runCLI(t, "verify", cut)
	if code != 1 || out != "" || !strings.Contains(errOut, "atlas verify:") {
		t.Fatalf("verify truncated: code=%d out=%q stderr=%q", code, out, errOut)
	}
	// A file that opens but breaks a cross-section invariant names the
	// failing check.
	lying := filepath.Join(t.TempDir(), "lying.atlas")
	if err := os.WriteFile(lying, bytes.Replace(raw, []byte(`"edges":4`), []byte(`"edges":5`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runCLI(t, "verify", lying)
	if code != 1 || !strings.Contains(errOut, "edge total") {
		t.Fatalf("verify lying header: code=%d stderr=%q", code, errOut)
	}
	if code, _, _ := runCLI(t, "verify"); code != 2 {
		t.Fatal("verify without snapshot must be a usage error")
	}
}

func TestCompactSubcommand(t *testing.T) {
	t.Parallel()
	base := testSnapshot(t)
	out := filepath.Join(t.TempDir(), "out.atlas")
	code, stdout, errOut := runCLI(t, "compact", "-o", out, base, base)
	if code != 0 {
		t.Fatalf("compact: code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(stdout, "compacted 2 snapshots") {
		t.Fatalf("compact stdout = %q", stdout)
	}
	// Merging a snapshot with itself is idempotent for topology; only
	// census encounter counts sum. Spot-check it round-trips.
	r, err := traceio.OpenAtlasFile(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	ds, err := r.ReadDiamonds()
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Nodes != 4 || ds[0].Count != 2 {
		t.Fatalf("compacted snapshot: %d nodes, census count %d", r.Header().Nodes, ds[0].Count)
	}
	if code, _, _ := runCLI(t, "compact", "-o", "", base); code != 2 {
		t.Fatal("compact without -o must be a usage error")
	}
	// -shards never reached Compact, which streams from files and reads
	// only the merge worker count; it is gone, so it is a usage error.
	gone := filepath.Join(t.TempDir(), "gone.atlas")
	if code, _, errOut := runCLI(t, "compact", "-shards", "4", "-o", gone, base); code != 2 || !strings.Contains(errOut, "-shards") {
		t.Fatalf("compact -shards: code=%d stderr=%q, want usage error 2", code, errOut)
	}
	if _, err := os.Stat(gone); !os.IsNotExist(err) {
		t.Fatalf("compact -shards wrote %s (stat err %v)", gone, err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}

// compact writes the same bytes for every -workers value, and reports
// its progress on stderr.
func TestCompactWorkers(t *testing.T) {
	t.Parallel()
	base := testSnapshot(t)
	dir := t.TempDir()
	var want []byte
	for _, w := range []string{"1", "3"} {
		out := filepath.Join(dir, "w"+w+".atlas")
		code, _, errOut := runCLI(t, "compact", "-workers", w, "-o", out, base, base)
		if code != 0 {
			t.Fatalf("compact -workers %s: code=%d stderr=%q", w, code, errOut)
		}
		if !strings.HasPrefix(errOut, "compact: ") {
			t.Errorf("compact -workers %s: stderr %q, want progress lines", w, errOut)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("compact -workers %s wrote %d bytes that differ from -workers 1's %d", w, len(got), len(want))
		}
	}
}

func TestUsageErrors(t *testing.T) {
	t.Parallel()
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatal("no args must be a usage error")
	}
	if code, _, _ := runCLI(t, "stats"); code != 2 {
		t.Fatal("stats without snapshot must be a usage error")
	}
	code, out, _ := runCLI(t, "help")
	if code != 0 || !strings.Contains(out, "usage:") {
		t.Fatalf("help: code=%d out=%q", code, out)
	}
}
