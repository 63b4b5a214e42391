package packet

import (
	"bytes"
	"net/netip"
	"testing"
)

// ParseCanonicalAddr, which atlasd and the atlas CLI parse query
// addresses with, refuses malformed text with ParseAddr's error (the
// message atlasd's 400 golden holds) and a lenient-only spelling as not
// canonical.
func TestParseCanonicalAddrErrors(t *testing.T) {
	for _, c := range []struct{ in, err string }{
		{"bogus", `packet: invalid character in address "bogus"`},
		{"1.2.3", `packet: malformed address "1.2.3"`},
		{"256.0.0.1", `packet: octet out of range in "256.0.0.1"`},
		{"010.0.0.1", `packet: "010.0.0.1" is not a canonical dotted quad`},
		{"0000000010.0.0.1", `packet: "0000000010.0.0.1" is not a canonical dotted quad`},
		{"1.2.3.04", `packet: "1.2.3.04" is not a canonical dotted quad`},
	} {
		if a, err := ParseCanonicalAddr(c.in); err == nil || err.Error() != c.err || a != 0 {
			t.Errorf("ParseCanonicalAddr(%q) = %s, %v; want error %q", c.in, a, err, c.err)
		}
	}
	if a, err := ParseCanonicalAddr("10.0.0.1"); err != nil || a != AddrFrom4(10, 0, 0, 1) {
		t.Errorf("ParseCanonicalAddr(10.0.0.1) = %s, %v", a, err)
	}
}

// FuzzAddrText is the oracle for ScanAddr, the one canonical
// dotted-quad reader that UnmarshalText and the snapshot and record line
// parsers share (so their own fuzzers, which hold them to
// encoding/json, compare the routine with itself). Here it answers to
// writers and readers that do not use it: on arbitrary bytes, ScanAddr
// accepts exactly the strings AppendText renders — an accepted string
// re-renders byte-identical, every rendered uint32 is accepted whole —
// and a whole string exactly when net/netip parses it as an IPv4
// address (which also refuses leading zeros); its string and []byte
// forms agree; UnmarshalText and ParseCanonicalAddr accept what
// ScanAddr reads whole, and UnmarshalText leaves the value untouched
// when it refuses. CI's fuzz-smoke job runs
// it for a short budget; locally:
//
//	go test -run='^$' -fuzz='^FuzzAddrText$' -fuzztime=30s ./internal/packet
func FuzzAddrText(f *testing.F) {
	for _, s := range []string{
		"0.0.0.0", "255.255.255.255", "256.0.0.1", "01.2.3.4", "1.2.3", "1.2.3.4.5",
		"1.2.3.", "1..2.3", "-1.2.3.4", "1.2.3.4 ", "10.0.0.1\"", "1.2.3.1000", "",
	} {
		f.Add([]byte(s), uint32(0x0a000001))
	}
	f.Fuzz(func(t *testing.T, b []byte, v uint32) {
		a, n := ScanAddr(b)
		if sa, sn := ScanAddr(string(b)); sa != a || sn != n {
			t.Fatalf("ScanAddr(%q): []byte form (%s, %d), string form (%s, %d)", b, a, n, sa, sn)
		}
		if n < 0 || n > len(b) || (n == 0 && a != 0) {
			t.Fatalf("ScanAddr(%q) = (%s, %d)", b, a, n)
		}
		if n > 0 {
			if text := a.AppendText(nil); !bytes.Equal(text, b[:n]) {
				t.Fatalf("ScanAddr(%q) read %q as %s, which renders %q", b, b[:n], a, text)
			}
		}
		whole := n > 0 && n == len(b)
		ip, err := netip.ParseAddr(string(b))
		if std := err == nil && ip.Is4(); std != whole || (whole && ip.As4() != [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}) {
			t.Fatalf("%q: ScanAddr reads it whole %v (%s), net/netip IPv4 %v (%v)", b, whole, a, std, ip)
		}

		var want Addr // ParseCanonicalAddr's value: a when whole, else zero
		if whole {
			want = a
		}
		if pa, err := ParseCanonicalAddr(string(b)); (err == nil) != whole || pa != want {
			t.Fatalf("ParseCanonicalAddr(%q) = %s, %v; ScanAddr reads it whole %v (%s)", b, pa, err, whole, a)
		}

		const untouched = Addr(0xdeadbeef)
		got := untouched
		err = got.UnmarshalText(b)
		switch {
		case (err == nil) != whole:
			t.Fatalf("UnmarshalText(%q) error %v; ScanAddr reads it whole %v", b, err, whole)
		case err != nil && got != untouched:
			t.Fatalf("UnmarshalText(%q) refused it but changed the value to %s", b, got)
		case err == nil && got != a:
			t.Fatalf("UnmarshalText(%q) = %s, ScanAddr %s", b, got, a)
		}

		text := Addr(v).AppendText(nil)
		if back, n := ScanAddr(text); back != Addr(v) || n != len(text) {
			t.Fatalf("ScanAddr(%q) = (%s, %d), want (%s, %d)", text, back, n, Addr(v), len(text))
		}
	})
}
