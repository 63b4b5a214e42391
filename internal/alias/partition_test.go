package alias

import (
	"testing"
	"testing/quick"

	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
)

// synthetic observation fixtures for partition-level tests.

// synthObs builds an observation store where addresses are grouped into
// routers: all addresses of one router share a counter (interleaved
// monotonic series); different routers have independent counters.
func synthObs(groups [][]packet.Addr) *obs.Observations {
	o := obs.New()
	seq := uint64(0)
	// Interleave samples across all addresses round-robin, advancing each
	// group's counter whenever one of its addresses is sampled.
	counters := make([]uint16, len(groups))
	for gi := range counters {
		counters[gi] = uint16(1000 * (gi + 1)) // distinct phases
	}
	for round := 0; round < 6; round++ {
		for gi, g := range groups {
			for _, a := range g {
				seq++
				counters[gi] += 3
				ao := o.Ensure(a)
				ao.Indirect = append(ao.Indirect, obs.Sample{Seq: seq, IPID: counters[gi]})
			}
		}
	}
	return o
}

func addrsOf(groups [][]packet.Addr) []packet.Addr {
	var out []packet.Addr
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func a(n int) packet.Addr { return packet.Addr(0x0a000000 + uint32(n)) }

func TestPartitionRecoversGroups(t *testing.T) {
	groups := [][]packet.Addr{
		{a(1), a(2), a(3)},
		{a(4), a(5)},
		{a(6)},
	}
	r := &Resolver{Obs: synthObs(groups)}
	sets := r.Partition(addrsOf(groups))
	routers := RouterSets(sets)
	if len(routers) != 2 {
		t.Fatalf("routers: %+v", routers)
	}
	sizes := map[int]int{}
	for _, s := range routers {
		sizes[len(s.Addrs)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 {
		t.Fatalf("router sizes: %+v", routers)
	}
}

func TestPartitionConsistencyProperty(t *testing.T) {
	// For any random grouping, the partition must (a) place every
	// candidate exactly once, and (b) never put a rejected pair in one
	// set.
	f := func(sizesRaw []uint8) bool {
		var groups [][]packet.Addr
		next := 1
		for _, sr := range sizesRaw {
			size := int(sr)%4 + 1
			var g []packet.Addr
			for i := 0; i < size; i++ {
				g = append(g, a(next))
				next++
			}
			groups = append(groups, g)
			if len(groups) >= 5 {
				break
			}
		}
		if len(groups) == 0 {
			return true
		}
		r := &Resolver{Obs: synthObs(groups)}
		cands := addrsOf(groups)
		sets := r.Partition(cands)
		seen := map[packet.Addr]int{}
		for _, s := range sets {
			for _, addr := range s.Addrs {
				seen[addr]++
			}
			for i := 0; i < len(s.Addrs); i++ {
				for j := i + 1; j < len(s.Addrs); j++ {
					if pairVerdict(r, s.Addrs[i], s.Addrs[j]).Combine() == Rejected {
						return false
					}
				}
			}
		}
		for _, c := range cands {
			if seen[c] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	groups := [][]packet.Addr{{a(3), a(9)}, {a(1), a(7), a(5)}}
	r1 := &Resolver{Obs: synthObs(groups)}
	r2 := &Resolver{Obs: synthObs(groups)}
	s1 := r1.Partition(addrsOf(groups))
	// Same candidates in a different order must yield the same partition.
	rev := []packet.Addr{a(5), a(7), a(1), a(9), a(3)}
	s2 := r2.Partition(rev)
	p1 := AliasPairs(s1)
	p2 := AliasPairs(s2)
	if len(p1) != len(p2) {
		t.Fatalf("pair counts differ: %d vs %d", len(p1), len(p2))
	}
	for k := range p1 {
		if !p2[k] {
			t.Fatalf("pair %v missing under reordering", k)
		}
	}
}

// TestPartitionAllocationsLinearInWidth pins Partition's cost on a
// 48-wide candidate group, where 1 128 pairs are tested either way: one
// router with a shared counter (every pair accepted) and 48 routers with
// their own counters (every address rejected by each earlier one). Each
// address's evidence is read once and each pair verdict is an
// allocation-free merge, so the count stays linear in the width.
func TestPartitionAllocationsLinearInWidth(t *testing.T) {
	const k = 48
	one := make([]packet.Addr, k)
	singles := make([][]packet.Addr, k)
	for i := range one {
		one[i] = a(i + 1)
		singles[i] = one[i : i+1]
	}
	for _, c := range []struct {
		name    string
		groups  [][]packet.Addr
		routers int
	}{
		{"one router", [][]packet.Addr{one}, 1},
		{"48 routers", singles, k},
	} {
		r := &Resolver{Obs: synthObs(c.groups)}
		if sets := r.Partition(one); len(sets) != c.routers {
			t.Fatalf("%s: %d sets, want %d", c.name, len(sets), c.routers)
		}
		n := testing.AllocsPerRun(20, func() { r.Partition(one) })
		t.Logf("%s: %v allocations", c.name, n)
		if limit := float64(4*k + 16); n > limit {
			t.Errorf("%s: Partition of %d candidates allocates %v times, want at most %v", c.name, k, n, limit)
		}
	}
}

func TestClassifySetOutcomes(t *testing.T) {
	groups := [][]packet.Addr{{a(1), a(2)}, {a(3), a(4)}}
	r := &Resolver{Obs: synthObs(groups)}
	if got := r.ClassifySet([]packet.Addr{a(1), a(2)}); got != Accepted {
		t.Fatalf("true alias set: %v", got)
	}
	if got := r.ClassifySet([]packet.Addr{a(1), a(3)}); got != Rejected {
		t.Fatalf("cross-router set: %v", got)
	}
	if got := r.ClassifySet([]packet.Addr{a(1)}); got != Unable {
		t.Fatalf("singleton: %v", got)
	}
	// A set containing an unobserved address is unable (no evidence).
	if got := r.ClassifySet([]packet.Addr{a(1), a(99)}); got != Unable {
		t.Fatalf("unknown member: %v", got)
	}
}

func TestPrecisionRecallEdgeCases(t *testing.T) {
	empty := map[[2]packet.Addr]bool{}
	one := map[[2]packet.Addr]bool{{a(1), a(2)}: true}
	if p, r := PrecisionRecall(empty, empty); p != 1 || r != 1 {
		t.Fatal("empty vs empty must be perfect")
	}
	if p, r := PrecisionRecall(empty, one); p != 1 || r != 0 {
		t.Fatalf("no predictions: p=%v r=%v", p, r)
	}
	if p, r := PrecisionRecall(one, empty); p != 0 || r != 1 {
		t.Fatalf("spurious predictions: p=%v r=%v", p, r)
	}
}

func TestGroundTruthPairs(t *testing.T) {
	routerOf := map[packet.Addr]int{a(1): 0, a(2): 0, a(3): 1, a(4): 0}
	pairs := GroundTruthPairs(routerOf, []packet.Addr{a(1), a(2), a(3), a(4)})
	if len(pairs) != 3 { // (1,2) (1,4) (2,4)
		t.Fatalf("pairs: %v", pairs)
	}
	if pairs[[2]packet.Addr{a(1), a(3)}] {
		t.Fatal("cross-router pair present")
	}
}
