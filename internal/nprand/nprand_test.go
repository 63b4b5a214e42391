package nprand

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds diverged")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(1)
	for n := 1; n <= 10; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(7)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 4*math.Sqrt(want) {
			t.Errorf("bucket %d: %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const draws = 10000
	for i := 0; i < draws; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 = %v", x)
		}
		sum += x
	}
	if mean := sum / draws; mean < 0.48 || mean > 0.52 {
		t.Fatalf("mean %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(9)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatal("shuffle changed elements")
	}
}

func TestCategorical(t *testing.T) {
	r := New(11)
	counts := [3]int{}
	const draws = 30000
	for i := 0; i < draws; i++ {
		counts[r.Categorical([]float64{0.5, 0.3, 0.2})]++
	}
	for i, want := range []float64{0.5, 0.3, 0.2} {
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.02 {
			t.Errorf("category %d: %.3f, want %.3f", i, got, want)
		}
	}
	// Zero-weight entries are never chosen.
	for i := 0; i < 1000; i++ {
		if r.Categorical([]float64{0, 1, 0}) != 1 {
			t.Fatal("zero-weight category chosen")
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestFlowHashDeterministicAndSpread(t *testing.T) {
	if FlowHash(1, 2) != FlowHash(1, 2) {
		t.Fatal("not deterministic")
	}
	// Buckets over sequential flow IDs must spread evenly for small
	// fanouts: this is the property per-flow load balancing relies on.
	for _, fanout := range []int{2, 3, 4, 7} {
		counts := make([]int, fanout)
		const flows = 20000
		for f := 0; f < flows; f++ {
			counts[FlowHash(0xdeadbeef, uint64(f))%uint64(fanout)]++
		}
		want := float64(flows) / float64(fanout)
		for b, c := range counts {
			if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
				t.Errorf("fanout %d bucket %d: %d, want ~%.0f", fanout, b, c, want)
			}
		}
	}
}

func TestFlowHashKeysIndependent(t *testing.T) {
	// Two different load balancers must not branch identically: the
	// fraction of flows taking the same bucket index under two keys
	// should be about 1/fanout.
	const fanout, flows = 2, 20000
	same := 0
	for f := 0; f < flows; f++ {
		a := FlowHash(111, uint64(f)) % fanout
		b := FlowHash(222, uint64(f)) % fanout
		if a == b {
			same++
		}
	}
	frac := float64(same) / flows
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("key correlation: %.3f of flows agree, want ~0.5", frac)
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(5)
	c1 := r.Fork(1)
	c2 := r.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d times", same)
	}
}

func TestMul64MatchesBigMultiplication(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via 32-bit schoolbook independently.
		a0, a1 := a&0xffffffff, a>>32
		b0, b1 := b&0xffffffff, b>>32
		ll := a0 * b0
		lh := a0 * b1
		hl := a1 * b0
		hh := a1 * b1
		carry := (ll>>32 + lh&0xffffffff + hl&0xffffffff) >> 32
		wantHi := hh + lh>>32 + hl>>32 + carry
		wantLo := a * b
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// flowHashRef is FlowHash as specified: FNV-1a over the sixteen bytes of
// key then flowID, each least significant byte first, finished with
// MurmurHash3's fmix64.
func flowHashRef(key, flowID uint64) uint64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], key)
	binary.LittleEndian.PutUint64(b[8:], flowID)
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// FuzzFlowHashKeyed holds FlowHash and its split form, a balancer's
// KeyState finished per flow by FlowHashFrom, to the 16-byte reference
// loop. The seeds cover zero and all-ones inputs, a star vertex's key
// and one byte set in each half.
func FuzzFlowHashKeyed(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(0x0a000001), uint64(33434))
	f.Add(uint64(0xc0000201)<<32^0x0a000009^7<<8^0xdead, uint64(1))
	f.Add(uint64(1)<<56, uint64(0x80))
	f.Fuzz(func(t *testing.T, key, flowID uint64) {
		want := flowHashRef(key, flowID)
		if got := FlowHash(key, flowID); got != want {
			t.Fatalf("FlowHash(%#x, %#x) = %#x, reference %#x", key, flowID, got, want)
		}
		if got := FlowHashFrom(KeyState(key), flowID); got != want {
			t.Fatalf("FlowHashFrom(KeyState(%#x), %#x) = %#x, reference %#x", key, flowID, got, want)
		}
	})
}
