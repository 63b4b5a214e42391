package obs

import (
	"testing"
	"testing/quick"

	"mmlpt/internal/packet"
)

func mkReply(from packet.Addr, ipid uint16, ttl byte) *packet.Reply {
	return &packet.Reply{From: from, Type: packet.ICMPTypeTimeExceeded, IPID: ipid, ReplyTTL: ttl}
}

func TestRecordTraceAccumulates(t *testing.T) {
	o := New()
	a := packet.MustParseAddr("10.0.0.1")
	o.RecordTrace(mkReply(a, 100, 253), 5, 3, 1)
	o.RecordTrace(mkReply(a, 101, 253), 5, 3, 2)
	o.RecordTrace(mkReply(a, 102, 253), 6, 3, 3)
	ao := o.Get(a)
	if ao == nil {
		t.Fatal("no record")
	}
	if len(ao.Indirect) != 3 {
		t.Fatalf("samples %d", len(ao.Indirect))
	}
	if len(ao.Flows) != 2 { // (5,3) deduplicated, (6,3) new
		t.Fatalf("flows %v", ao.Flows)
	}
	if len(ao.ReplyTTLExceeded) != 1 || ao.ReplyTTLExceeded[0] != 253 {
		t.Fatalf("reply TTLs %v", ao.ReplyTTLExceeded)
	}
}

func TestSamplesSplitByFamily(t *testing.T) {
	o := New()
	a := packet.MustParseAddr("10.0.0.2")
	o.RecordTrace(mkReply(a, 1, 200), 1, 2, 10)
	o.RecordEcho(&packet.Reply{From: a, Type: packet.ICMPTypeEchoReply, IPID: 9, ReplyTTL: 60}, 11, 77)
	ind := o.Get(a).Indirect
	dir := o.Get(a).Direct
	if len(ind) != 1 || len(dir) != 1 {
		t.Fatalf("split %d/%d", len(ind), len(dir))
	}
	if dir[0].SentID != 77 {
		t.Fatalf("sent ID %d", dir[0].SentID)
	}
	if ind[0].IPID != 1 || dir[0].IPID != 9 {
		t.Fatal("family mixup")
	}
}

func TestSamplesSortedBySeq(t *testing.T) {
	o := New()
	a := packet.MustParseAddr("10.0.0.3")
	for _, seq := range []uint64{30, 10, 40, 20, 5} {
		o.RecordTrace(mkReply(a, uint16(seq), 200), 1, 2, seq)
	}
	s := o.Get(a).Indirect
	if len(s) != 5 {
		t.Fatalf("samples %d", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i].Seq < s[i-1].Seq || uint64(s[i].IPID) != s[i].Seq {
			t.Fatalf("not sorted by seq: %v", s)
		}
	}
}

func TestInferInitialTTL(t *testing.T) {
	cases := []struct {
		observed, want byte
	}{
		{1, 32}, {32, 32}, {33, 64}, {60, 64}, {64, 64},
		{65, 128}, {128, 128}, {129, 255}, {250, 255}, {255, 255},
	}
	for _, c := range cases {
		if got := InferInitialTTL(c.observed); got != c.want {
			t.Errorf("InferInitialTTL(%d) = %d, want %d", c.observed, got, c.want)
		}
	}
}

func TestInferInitialTTLProperty(t *testing.T) {
	// The inferred initial TTL is always >= the observed TTL and is one
	// of the conventional values.
	f := func(observed byte) bool {
		got := InferInitialTTL(observed)
		if got < observed {
			return false
		}
		switch got {
		case 32, 64, 128, 255:
			return true
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintCompatibility(t *testing.T) {
	full255 := Fingerprint{Exceeded: 255, Echo: 255}
	full64 := Fingerprint{Exceeded: 64, Echo: 64}
	onlyExc := Fingerprint{Exceeded: 255}
	if CompatibleFingerprints(full255, full64) {
		t.Fatal("different signatures compatible")
	}
	if !CompatibleFingerprints(full255, onlyExc) {
		t.Fatal("partial signature must be compatible when measured parts match")
	}
	if !CompatibleFingerprints(Fingerprint{}, full64) {
		t.Fatal("unmeasured signature must be compatible with anything")
	}
	if CompatibleFingerprints(onlyExc, Fingerprint{Exceeded: 64, Echo: 255}) {
		t.Fatal("mismatched measured component accepted")
	}
}

func TestConstantLabel(t *testing.T) {
	ao := &AddrObs{}
	if _, ok := ao.ConstantLabel(); ok {
		t.Fatal("no labels must not be constant")
	}
	ao.MPLSLabels = []uint32{5, 5, 5}
	if l, ok := ao.ConstantLabel(); !ok || l != 5 {
		t.Fatalf("constant label: %d %v", l, ok)
	}
	ao.MPLSLabels = append(ao.MPLSLabels, 6)
	if _, ok := ao.ConstantLabel(); ok {
		t.Fatal("flapping label reported constant")
	}
}

func TestFingerprintOfUsesMaxObserved(t *testing.T) {
	ao := &AddrObs{ReplyTTLExceeded: []byte{250, 252}, ReplyTTLEcho: []byte{60}}
	fp := ao.FingerprintOf()
	if fp.Exceeded != 255 || fp.Echo != 64 {
		t.Fatalf("fingerprint %+v", fp)
	}
}
