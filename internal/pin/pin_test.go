package pin

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fakeTB records what Check reports, each message after its kind.
type fakeTB struct {
	testing.TB
	got []string
}

func (f *fakeTB) Helper()                   {}
func (f *fakeTB) Fatalf(s string, a ...any) { f.got = append(f.got, "fatal: "+fmt.Sprintf(s, a...)) }
func (f *fakeTB) Errorf(s string, a ...any) { f.got = append(f.got, "error: "+fmt.Sprintf(s, a...)) }

func TestCheck(t *testing.T) {
	t.Parallel()
	hello := entry{fmt.Sprintf("%x", sha256.Sum256([]byte("hello"))), "0123abc", "internal/pin TestCheck", "the bytes of hello"}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte("hullo")))
	for _, c := range []struct{ name, data, want string }{
		{"hello", "hello", ""},
		{"nosuch", "hello", `fatal: pin "nosuch" is not in testdata/pins.json`},
		{"hello", "hullo", `error: pin "hello": sha256 ` + got + ", pinned " + hello.SHA256 +
			" (recorded at 0123abc, checked by internal/pin TestCheck: the bytes of hello)\n" +
			"if the new bytes are intended, give the reason in CHANGES.md and replace its line in testdata/pins.json with\n" +
			line("hello", entry{got, nextCommit(), hello.Test, hello.Scope})},
	} {
		var tb fakeTB
		if check(&tb, map[string]entry{"hello": hello}, c.name, []byte(c.data)); strings.Join(tb.got, "\n") != c.want {
			t.Errorf("%s given %q reports %q, want %q", c.name, c.data, tb.got, c.want)
		}
	}
}

// TestCheckInParallel loads the registry from parallel subtests, each
// of which must see it whole (run it with -race).
func TestCheckInParallel(t *testing.T) {
	t.Parallel()
	for i := 0; i < 8; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			t.Parallel()
			var tb fakeTB
			Check(&tb, "atlas/empty", nil)
			if len(tb.got) != 1 || !strings.Contains(tb.got[0], "error: pin \"atlas/empty\": sha256 e3b0c442") {
				t.Errorf("a mismatch reports %q", tb.got)
			}
		})
	}
}

// TestRegistryIsCanonical: the registry holds one entry per line, keys
// sorted, in exactly the form a mismatch prints, so a printed line
// pastes over its entry.
func TestRegistryIsCanonical(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile(filepath.Join("..", "..", registryFile))
	pins, err2 := registry()
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	var names []string
	for name := range pins {
		names = append(names, name)
	}
	sort.Strings(names)
	want := "{\n"
	for _, name := range names {
		want += line(name, pins[name]) + "\n"
	}
	if want = strings.TrimSuffix(want, ",\n") + "\n}\n"; string(raw) != want {
		t.Errorf("%s is not in canonical form; it should read:\n%s", registryFile, want)
	}
}
