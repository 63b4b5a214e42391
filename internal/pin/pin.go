// Package pin holds the byte-identity pins: the SHA-256 of each output a
// test or CI step must reproduce bit for bit, kept in one registry,
// testdata/pins.json at the module root. Check is the one way a test
// compares bytes against a pin. In the layering, pin is a rank-0 leaf
// with no dependencies inside the module; only tests call it.
package pin

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const registryFile = "testdata/pins.json"

// entry is one pin: the digest, the commit that recorded it, the test
// (package directory and test name) that checks it and what it covers.
type entry struct {
	SHA256   string `json:"sha256"`
	Recorded string `json:"recorded"`
	Test     string `json:"test"`
	Scope    string `json:"scope"`
}

// registry reads the registry once, whichever test asks first, walking
// up from the working directory (a package directory under go test) to
// the module root, the directory holding go.mod.
var registry = sync.OnceValues(func() (pins map[string]entry, err error) {
	dir, err := os.Getwd()
	for err == nil {
		if _, err = os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			var raw []byte
			if raw, err = os.ReadFile(filepath.Join(dir, registryFile)); err == nil {
				err = json.Unmarshal(raw, &pins)
			}
			return pins, err
		}
		if parent := filepath.Dir(dir); parent != dir {
			dir, err = parent, nil
		}
	}
	return nil, err
})

// Check fails tb unless data hashes to the digest pinned under name. An
// unknown name is fatal; a mismatch is an error naming the entry's
// commit, test and scope and printing the line that would re-record it.
// There is no update mode: re-recording a pin is an edit of the registry.
func Check(tb testing.TB, name string, data []byte) {
	tb.Helper()
	pins, err := registry()
	if err != nil {
		tb.Fatalf("pin: %s: %v", registryFile, err)
		return
	}
	check(tb, pins, name, data)
}

func check(tb testing.TB, pins map[string]entry, name string, data []byte) {
	tb.Helper()
	e, ok := pins[name]
	if !ok {
		tb.Fatalf("pin %q is not in %s", name, registryFile)
		return
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != e.SHA256 {
		tb.Errorf("pin %q: sha256 %s, pinned %s (recorded at %s, checked by %s: %s)\n"+
			"if the new bytes are intended, give the reason in CHANGES.md and replace its line in %s with\n%s",
			name, got, e.SHA256, e.Recorded, e.Test, e.Scope, registryFile, line(name, entry{got, nextCommit(), e.Test, e.Scope}))
	}
}

// nextCommit names the commit a re-recorded entry will land in: a
// commit cannot carry its own hash, so it is written as its parent,
// HEAD, followed by "+".
func nextCommit() string {
	out, _ := exec.Command("git", "rev-parse", "--short", "HEAD").Output() // empty without git or a repository
	return cmp.Or(strings.TrimSpace(string(out)), "HEAD") + "+"
}

// line renders an entry as the registry holds it: one line per entry,
// fields in a fixed order, a comma after every entry but the last. The
// fields are printable text, which strconv.Quote writes as JSON does.
func line(name string, e entry) string {
	q := strconv.Quote
	return fmt.Sprintf(`%s: {"sha256": %s, "recorded": %s, "test": %s, "scope": %s},`,
		q(name), q(e.SHA256), q(e.Recorded), q(e.Test), q(e.Scope))
}
