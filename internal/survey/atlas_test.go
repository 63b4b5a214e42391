package survey

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

func deltaRecord(i int) *traceio.SurveyRecord {
	a := func(last byte) packet.Addr { return packet.AddrFrom4(10, 0, byte(10+i), last) }
	g := topo.New()
	div, conv := g.AddVertex(0, a(1)), g.AddVertex(2, a(4))
	for _, mid := range []packet.Addr{a(2), a(3)} {
		v := g.AddVertex(1, mid)
		g.AddEdge(div, v)
		g.AddEdge(v, conv)
	}
	rec := traceio.NewSurveyRecord(packet.AddrFrom4(192, 0, 2, 1), packet.AddrFrom4(203, 0, 113, byte(i+1)), "mda-lite", g)
	rec.Reached = true
	rec.PairIndex = i
	rec.Routers = append(rec.Routers, []packet.Addr{a(2), a(3)})
	rec.Diamonds = []traceio.SurveyDiamond{
		{Div: a(1).String(), Conv: a(4).String(), MaxWidth: 2, MaxLength: 2},
	}
	return rec
}

// Delta publishing's contract: compacting the published deltas over an
// empty base reproduces the full-run snapshot byte-for-byte.
func TestAtlasSinkDeltaPublishing(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	base := filepath.Join(dir, "survey.atlas")
	sink := NewAtlasSink(atlas.Options{})
	sink.PublishDeltas(base, 2)
	const n = 5
	for i := 0; i < n; i++ {
		if err := sink.Emit(deltaRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	deltas := sink.Published()
	if len(deltas) != 3 { // 2 + 2 + 1 (final partial flushed by Close)
		t.Fatalf("published %d deltas, want 3: %v", len(deltas), deltas)
	}
	for i, p := range deltas {
		want := fmt.Sprintf("%s.d%06d", base, i)
		if p != want {
			t.Fatalf("delta %d path = %s, want %s", i, p, want)
		}
	}

	full := filepath.Join(dir, "full.atlas")
	if err := sink.Atlas.Save(full); err != nil {
		t.Fatal(err)
	}
	compacted := filepath.Join(dir, "compacted.atlas")
	if err := atlas.Compact(compacted, "", deltas, atlas.Options{}); err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := os.ReadFile(compacted)
	if err != nil {
		t.Fatal(err)
	}
	if string(fb) != string(cb) {
		t.Fatal("compacted deltas differ from the full snapshot")
	}

	// Base + later deltas: compacting the first delta as base with the
	// remaining deltas is the same atlas again.
	recompacted := filepath.Join(dir, "recompacted.atlas")
	if err := atlas.Compact(recompacted, deltas[0], deltas[1:], atlas.Options{}); err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(recompacted)
	if err != nil {
		t.Fatal(err)
	}
	if string(fb) != string(rb) {
		t.Fatal("base+deltas compaction differs from the full snapshot")
	}
}

// Without PublishDeltas the sink behaves exactly as before: no files.
func TestAtlasSinkNoPublishing(t *testing.T) {
	t.Parallel()
	sink := NewAtlasSink(atlas.Options{})
	if err := sink.Emit(deltaRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Published(); len(got) != 0 {
		t.Fatalf("Published = %v, want none", got)
	}
}
