package traceio

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// Robustness: the atlas snapshot reader parses files from disk that may
// be corrupt, truncated, or hostile. Errors are fine; panics and
// unbounded allocations are not (mirrors internal/packet/fuzz_test.go).

func readerNeverPanics(t *testing.T, name string, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: atlas reader panicked on %q: %v", name, data, r)
		}
	}()
	_ = openAndVerify(data)
}

func TestAtlasDecodeNeverPanicsOnGarbage(t *testing.T) {
	t.Parallel()
	check := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("atlas reader panicked on %x: %v", data, r)
				ok = false
			}
		}()
		_ = openAndVerify(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Every prefix of a valid snapshot must error cleanly, never panic: a
// crash during a non-atomic copy produces exactly this shape.
func TestAtlasDecodeNeverPanicsOnTruncation(t *testing.T) {
	t.Parallel()
	raw := wideFixture().encode(t, 3)
	for n := 0; n < len(raw); n++ {
		readerNeverPanics(t, "truncation", raw[:n])
		if err := openAndVerify(raw[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(raw))
		}
	}
}

// Flipping any byte of a valid snapshot must not panic; most flips must
// also fail to verify (corruption detection), though flips inside string
// values may legitimately survive.
func TestAtlasDecodeNeverPanicsOnBitFlips(t *testing.T) {
	t.Parallel()
	raw := wideFixture().encode(t, 3)
	mut := make([]byte, len(raw))
	for i := 0; i < len(raw); i++ {
		for _, b := range []byte{0x00, 0xff, raw[i] ^ 0x80, '-', '9'} {
			copy(mut, raw)
			mut[i] = b
			readerNeverPanics(t, "bitflip", mut)
		}
	}
}

// FuzzAtlasReader is the native-fuzzing form of the hostile-input tests
// above: open from bytes, Verify, read every shard and the diamonds.
// Nothing may panic, and whatever Verify accepts must re-stream through
// the encoder into a file that verifies and re-streams to identical
// bytes — accepted hostile inputs may not produce blocks the encoder
// chokes on, and the encoder's output is a fixed point. It is also the
// differential for point reads: indexing a shard fails exactly when
// ReadShard fails, and when it succeeds every node's and router's point
// read equals ReadShard's decode. Seeded with valid snapshots (the wide
// one also with CRLF line ends and with blank lines between node
// lines), a truncation at every section boundary, hostile headers (a
// v1 header among them), a repeated pair index and an index whose shard
// counts disagree with the header, so the mutator starts near the
// format's structure. CI's fuzz-smoke job runs it for a short budget on every
// PR; locally:
//
//	go test -run='^$' -fuzz=FuzzAtlasReader -fuzztime=30s ./internal/traceio
func FuzzAtlasReader(f *testing.F) {
	raw := sampleFixture().encode(f, 0)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(`{"version":2,"kind":"atlas","nodes":123456789012,"shards":1}` + "\n"))
	f.Add([]byte(""))
	f.Add([]byte(`{"version":1,"kind":"atlas","nodes":1}` + "\n" + `{"addr":"10.0.0.1","seen":[[0,1]]}` + "\n"))
	wide := wideFixture().encode(f, 3)
	f.Add(wide)
	for off := 0; off < len(wide); off++ {
		if wide[off] == '\n' { // every line end is a section or record boundary
			f.Add(wide[:off+1])
		}
	}
	f.Add([]byte(repeatedPairs(f)))
	f.Add([]byte(strings.Replace(string(wide), `"routers":2,"diamonds":1,"shards":3`, `"routers":2,"diamonds":1,"shards":2`, 1)))
	f.Add([]byte(strings.Replace(string(wide), `"nodes":3,"routers":1,"min":"10.0.0.1"`, `"nodes":2,"routers":1,"min":"10.0.0.1"`, 2)))
	for _, v := range lineEndVariants(f, wide) {
		f.Add(v)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewAtlasReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		verr := r.Verify()
		for i := 0; i < r.NumShards(); i++ {
			sh, err := r.ReadShard(i)
			if err != nil && verr == nil {
				t.Fatalf("Verify accepted a file whose shard %d fails to read: %v", i, err)
			}
			ix, ierr := r.IndexShard(i)
			if (err == nil) != (ierr == nil) {
				t.Fatalf("shard %d: ReadShard err %v, IndexShard err %v", i, err, ierr)
			}
			if err == nil {
				checkPointReads(t, ix, sh)
			}
		}
		if _, err := r.ReadDiamonds(); err != nil && verr == nil {
			t.Fatalf("Verify accepted a file whose diamonds fail to read: %v", err)
		}
		if verr != nil {
			return
		}
		first := restream(t, r)
		r2, err := NewAtlasReader(bytes.NewReader(first), int64(len(first)))
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to open: %v", err)
		}
		if err := r2.Verify(); err != nil {
			t.Fatalf("re-encoded snapshot fails to verify: %v", err)
		}
		if !bytes.Equal(first, restream(t, r2)) {
			t.Fatal("re-encoding is not a byte-stable fixed point")
		}
	})
}

// Hostile section counts must not translate into allocations before the
// lines backing them exist.
func TestAtlasDecodeHostileHeaderCounts(t *testing.T) {
	t.Parallel()
	raw := (&atlasFixture{}).encode(t, 0)
	claims := []string{
		`"nodes":2147483647`,
		`"edges":2147483647`,
		`"pairs":999999999`,
		`"diamonds":999999999`,
	}
	if strconv.IntSize == 64 {
		// Past a 32-bit int, where even the shard header this fixture
		// rebuilds its index from cannot be decoded.
		claims = append(claims, `"nodes":123456789012`)
	}
	for _, claim := range claims {
		in := corrupt(t, raw, claim[:strings.Index(claim, ":")+1]+"0", claim)
		if err := openAndVerify([]byte(in)); err == nil {
			t.Errorf("header %s: accepted a file with no section lines", claim)
		}
	}
}
