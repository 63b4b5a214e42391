package traceio

import (
	"bytes"
	"strings"
	"testing"
)

// Re-streaming a file's own shard blocks through the stream encoder
// reproduces the file byte for byte: the encoder is a faithful dual of
// the reader, and AppendAtlasShardBlock accepts every block a canonical
// encode produces.
func TestStreamEncoderRoundTripsReaderBlocks(t *testing.T) {
	t.Parallel()
	for _, per := range []int{2, 3, 4096} {
		want := wideFixture().encode(t, per)
		if got := restream(t, openBytes(t, want)); !bytes.Equal(got, want) {
			t.Fatalf("per=%d: re-streamed bytes differ from the original encode", per)
		}
	}
}

// The encoder's two entry points write the same stream: blocks rendered
// ahead of time by AppendAtlasShardBlock and handed over with
// WriteEncodedBlock — the parallel producers' path — give the bytes
// WriteBlock gives.
func TestEncodeAtlasStream(t *testing.T) {
	t.Parallel()
	f := wideFixture()
	blocks := f.blocks(3)
	var got bytes.Buffer
	enc, err := NewAtlasStreamEncoder(&got, f.spec(len(blocks)))
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		raw, edges, err := AppendAtlasShardBlock(nil, blk)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteEncodedBlock(raw, blk.Header, edges); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), f.encode(t, 3)) {
		t.Fatal("pre-rendered blocks differ from WriteBlock's")
	}
}

// The encoder enforces the format invariants a hand-rolled producer
// could violate: totals must match the spec, blocks must arrive in
// order, fences must ascend.
func TestStreamEncoderRejectsInvalidSequences(t *testing.T) {
	t.Parallel()
	block := func(shard int, min, max string, nodes ...AtlasNodeV2) *AtlasShard {
		return &AtlasShard{
			Header: AtlasShardHeader{Shard: shard, Nodes: len(nodes), Min: ip(min), Max: ip(max)},
			Nodes:  nodes,
		}
	}
	n1 := AtlasNodeV2{Addr: ip("10.0.0.1")}
	n2 := AtlasNodeV2{Addr: ip("10.0.0.2")}

	t.Run("node total mismatch", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.1", "10.0.0.1", n1)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Finish(); err == nil || !strings.Contains(err.Error(), "node") {
			t.Fatalf("Finish after 1 of 2 nodes: err = %v", err)
		}
	})
	t.Run("missing shard", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.1", "10.0.0.1", n1)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Finish(); err == nil {
			t.Fatal("Finish after 1 of 2 shards: err = nil")
		}
	})
	t.Run("out of order shard", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(1, "10.0.0.2", "10.0.0.2", n2)); err == nil {
			t.Fatal("shard 1 before shard 0: err = nil")
		}
	})
	t.Run("descending fences", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.2", "10.0.0.2", n2)); err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(1, "10.0.0.1", "10.0.0.1", n1)); err == nil {
			t.Fatal("fence below previous max: err = nil")
		}
	})
	t.Run("unsorted nodes inside block", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 2, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.2", "10.0.0.1", n2, n1)); err == nil {
			t.Fatal("descending nodes: err = nil")
		}
	})
	t.Run("fence not matching first node", func(t *testing.T) {
		enc, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Nodes: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBlock(block(0, "10.0.0.9", "10.0.0.1", n1)); err == nil {
			t.Fatal("min fence != first node: err = nil")
		}
	})
	t.Run("zero shards", func(t *testing.T) {
		if _, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{}); err == nil {
			t.Fatal("spec with 0 shards: err = nil")
		}
	})
	t.Run("pairs not strictly ascending", func(t *testing.T) {
		for _, idxs := range [][]int{{5, 5, 2}, {0, 3, 1}, {-1}} {
			spec := AtlasStreamSpec{Shards: 1}
			for _, i := range idxs {
				spec.Pairs = append(spec.Pairs, AtlasPair{Pair: i, Src: "192.0.2.1", Dst: "203.0.113.1"})
			}
			if _, err := NewAtlasStreamEncoder(&bytes.Buffer{}, spec); err == nil {
				t.Errorf("pairs %v: err = nil", idxs)
			}
		}
	})
	t.Run("multiple shards for empty snapshot", func(t *testing.T) {
		if _, err := NewAtlasStreamEncoder(&bytes.Buffer{}, AtlasStreamSpec{Shards: 2}); err == nil {
			t.Fatal("2 shards for 0 nodes: err = nil")
		}
	})
}

// TestEncodersRefuseWhatReadersRefuse holds the writers to the reader's
// value rules: a node with negative provenance and a diamond with a
// negative count or pair fail the encode, worded as the reader words
// them, instead of writing a snapshot that Verify then refuses.
func TestEncodersRefuseWhatReadersRefuse(t *testing.T) {
	t.Parallel()
	for _, seen := range [][2]int{{-1, 1}, {0, -3}} {
		f := wideFixture()
		f.Nodes[3].Seen = [][2]int{seen}
		blocks := f.blocks(0)
		if _, _, err := AppendAtlasShardBlock(nil, blocks[0]); err == nil || !strings.Contains(err.Error(), "node 10.0.0.4: negative provenance") {
			t.Errorf("seen %v: AppendAtlasShardBlock err = %v, want node 10.0.0.4: negative provenance", seen, err)
		}
		if err := streamBlocks(&bytes.Buffer{}, f.spec(len(blocks)), blocks); err == nil {
			t.Errorf("seen %v: the stream encoder wrote the block", seen)
		}
	}
	for _, c := range []struct {
		edit func(*AtlasDiamond)
		want string
	}{
		{func(d *AtlasDiamond) { d.Count = -5 }, "negative diamond count"},
		{func(d *AtlasDiamond) { d.Pairs = []int{0, -1} }, "negative diamond pair"},
	} {
		f := wideFixture()
		c.edit(&f.Diamonds[0])
		blocks := f.blocks(0)
		err := streamBlocks(&bytes.Buffer{}, f.spec(len(blocks)), blocks)
		if want := "diamond 10.0.0.1-10.0.0.4: " + c.want; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("stream encoder err = %v, want %q", err, want)
		}
	}
}
