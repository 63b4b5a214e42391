package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mmlpt/internal/atlas"
	"mmlpt/internal/dispatch"
	"mmlpt/internal/experiments"
	"mmlpt/internal/survey"
)

// lockedBuffer is a bytes.Buffer safe for one writer and polling readers.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestUsageErrors: every usage error exits 2, and an address already
// taken exits 1, before anything is created — no manifest, shard or
// merged output.
func TestUsageErrors(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { busy.Close() }) // after the parallel subtests
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"no dir", []string{"-out", "o.jsonl"}, 2},
		{"unknown level", []string{"-dir", "work", "-level", "as", "-out", "o.jsonl"}, 2},
		{"no output", []string{"-dir", "work"}, 2},
		{"unknown flag", []string{"-dir", "work", "-out", "o.jsonl", "-shards", "3"}, 2},
		{"negative pairs", []string{"-dir", "work", "-out", "o.jsonl", "-pairs", "-1"}, 2},
		{"negative rounds", []string{"-dir", "work", "-out", "o.jsonl", "-level", "router", "-rounds", "-1"}, 2},
		{"phi below the minimum", []string{"-dir", "work", "-out", "o.jsonl", "-phi", "1"}, 2},
		{"atlas shards", []string{"-dir", "work", "-out", "o.jsonl", "-atlas", "a.atlas", "-atlas-shards", "4"}, 2},
		{"negative unit size", []string{"-dir", "work", "-out", "o.jsonl", "-unit-size", "-3"}, 2},
		{"negative lease ttl", []string{"-dir", "work", "-out", "o.jsonl", "-lease-ttl", "-1s"}, 2},
		{"negative budget rate", []string{"-dir", "work", "-out", "o.jsonl", "-budget-rate", "-5"}, 2},
		{"negative budget burst", []string{"-dir", "work", "-out", "o.jsonl", "-budget-burst", "-1"}, 2},
		{"negative linger", []string{"-dir", "work", "-out", "o.jsonl", "-linger", "-1s"}, 2},
		{"busy listen", []string{"-dir", "work", "-out", "o.jsonl", "-atlas", "a.atlas", "-listen", busy.Addr().String()}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := []string{"-pairs", "10"}
			for _, a := range c.args {
				if a == "work" || (strings.Contains(a, ".") && !strings.Contains(a, ":")) {
					a = filepath.Join(dir, a)
				}
				args = append(args, a)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d (stdout %q, stderr %q)", code, c.code, stdout.String(), stderr.String())
			}
			if stderr.Len() == 0 {
				t.Error("no error message")
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("%s left %s behind", c.name, ents[0].Name())
			}
		})
	}
}

// TestFleetOverAnyPort: surveyd on port 0 prints the address it bound
// and, with -progress, a status line every tick; two runners joining
// there leave a merged record log and atlas byte-identical to a
// single-machine run of the same survey. -resume over the finished work
// directory merges again without a runner, and refuses other options.
func TestFleetOverAnyPort(t *testing.T) {
	const pairs, seed = 30, 9
	dir := t.TempDir()
	out, snap := filepath.Join(dir, "fleet.jsonl"), filepath.Join(dir, "fleet.atlas")
	args := func(seed int) []string {
		return []string{"-level", "ip", "-pairs", fmt.Sprint(pairs), "-seed", fmt.Sprint(seed),
			"-dir", filepath.Join(dir, "work"), "-out", out, "-atlas", snap,
			"-unit-size", "5", "-listen", "127.0.0.1:0", "-linger", "200ms"}
	}
	var stdout, stderr lockedBuffer
	code := make(chan int, 1)
	go func() { code <- run(append(args(seed), "-progress"), &stdout, &stderr) }()

	bound := regexp.MustCompile(`coordinating \d+ units .* on (127\.0\.0\.1:\d+)\n`)
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if m := bound.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("surveyd never said where it listens:\n%s", stderr.String())
		}
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("surveyd printed the requested port, not the bound one: %s", addr)
	}
	// Before any runner joins, only -progress prints a status line.
	for deadline := time.Now().Add(30 * time.Second); !strings.Contains(stderr.String(), "0/6 units shipped"); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("surveyd -progress printed no status line:\n%s", stderr.String())
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dispatch.RunRunner(dispatch.RunnerConfig{
				Coordinator: "http://" + addr, ID: fmt.Sprintf("runner-%d", i),
				Workers: 1, Poll: 10 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("runner %d: %v", i, err)
		}
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("surveyd exited %d:\n%s", c, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("surveyd never finished")
	}
	if !strings.Contains(stdout.String(), "wrote merged record log to "+out) {
		t.Errorf("stdout does not report the merged log:\n%s", stdout.String())
	}

	// The same survey on one machine, as cmd/survey runs it.
	u, rc, err := experiments.PlanSurvey("ip", experiments.SurveyConfig{Pairs: pairs, Seed: seed, Phi: 2, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantSnap := filepath.Join(dir, "single.jsonl"), filepath.Join(dir, "single.atlas")
	jsonl, asink := survey.NewJSONLSink(wantOut), survey.NewAtlasSink(atlas.Options{})
	rc.Workers, rc.Sinks = 2, []survey.Sink{jsonl, asink}
	if _, err := survey.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := asink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := asink.Atlas.Save(wantSnap); err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2]string{{out, wantOut}, {snap, wantSnap}} {
		got, err := os.ReadFile(f[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(f[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the single-machine %s (%d vs %d bytes)", f[0], f[1], len(got), len(want))
		}
	}

	// surveyd logs from the merge goroutine too.
	var resumed lockedBuffer
	if c := run(append(args(seed), "-resume"), io.Discard, &resumed); c != 0 || !strings.Contains(resumed.String(), "resumed 6 shipped units") {
		t.Fatalf("-resume over the finished fleet: exit %d:\n%s", c, resumed.String())
	}
	for _, f := range [][2]string{{out, wantOut}, {snap, wantSnap}} {
		if got, want := readFile(t, f[0]), readFile(t, f[1]); !bytes.Equal(got, want) {
			t.Errorf("after -resume, %s differs from the single-machine %s", f[0], f[1])
		}
	}
	var refused lockedBuffer
	if c := run(append(args(seed+1), "-resume"), io.Discard, &refused); c != 1 || !strings.Contains(refused.String(), "different options") {
		t.Errorf("-resume under another -seed: exit %d, stderr %q; want exit 1 naming the options mismatch", c, refused.String())
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
