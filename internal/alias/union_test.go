package alias

import (
	"reflect"
	"testing"

	"mmlpt/internal/packet"
)

func addrs(ns ...uint32) []packet.Addr {
	out := make([]packet.Addr, len(ns))
	for i, n := range ns {
		out[i] = packet.Addr(n)
	}
	return out
}

// groups is the union's components in canonical order.
func groups(u *Union) [][]packet.Addr { return SortGroups(u.UnsortedGroups()) }

// Transitivity: sets from different traces that share one address merge
// into a single router.
func TestUnionTransitivity(t *testing.T) {
	t.Parallel()
	u := NewUnion()
	u.AddSet(addrs(10, 11))
	u.AddSet(addrs(11, 12))
	u.AddSet(addrs(12, 13))
	if u.Find(10) != u.Find(13) {
		t.Fatal("10 and 13 must be transitively merged")
	}
	got := groups(u)
	want := [][]packet.Addr{addrs(10, 11, 12, 13)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

// Stable representatives: the canonical representative is the smallest
// address of the component, whatever order evidence arrived in.
func TestUnionStableRepresentatives(t *testing.T) {
	t.Parallel()
	orders := [][][]packet.Addr{
		{addrs(30, 31), addrs(31, 5), addrs(5, 40)},
		{addrs(5, 40), addrs(31, 5), addrs(30, 31)},
		{addrs(31, 5), addrs(30, 31), addrs(5, 40)},
	}
	for i, sets := range orders {
		u := NewUnion()
		for _, s := range sets {
			u.AddSet(s)
		}
		for _, a := range addrs(5, 30, 31, 40) {
			if got := u.Find(a); got != 5 {
				t.Fatalf("order %d: Find(%v) = %v, want 5 (the minimum)", i, a, got)
			}
		}
		if got := groups(u); !reflect.DeepEqual(got, [][]packet.Addr{addrs(5, 30, 31, 40)}) {
			t.Fatalf("order %d: groups = %v", i, got)
		}
	}
}

// Disjoint components stay disjoint and come out sorted by canonical
// representative; singletons (never merged) are not routers.
func TestUnionGroupsSortedAndMultiOnly(t *testing.T) {
	t.Parallel()
	u := NewUnion()
	u.AddSet(addrs(200, 201))
	u.AddSet(addrs(100, 101, 102))
	u.AddSet(addrs(300)) // a singleton set is no evidence: no component
	got := groups(u)
	want := [][]packet.Addr{addrs(100, 101, 102), addrs(200, 201)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	if u.Find(100) == u.Find(200) {
		t.Fatal("disjoint components merged")
	}
}

// UnsortedGroups + SortGroups yields the canonical order however the
// components were built — the split exists so callers can sort outside a
// lock.
func TestUnsortedGroupsSortedMatchesGroups(t *testing.T) {
	u := NewUnion()
	u.AddSet([]packet.Addr{9, 4, 7})
	u.AddSet([]packet.Addr{2, 11})
	u.AddSet([]packet.Addr{4, 2}) // bridges the two components
	u.AddSet([]packet.Addr{30, 31})
	u.Add(21, 20)
	want := [][]packet.Addr{addrs(2, 4, 7, 9, 11), addrs(20, 21), addrs(30, 31)}
	if got := SortGroups(u.UnsortedGroups()); !reflect.DeepEqual(got, want) {
		t.Fatalf("SortGroups(UnsortedGroups()) = %v, want %v", got, want)
	}
}
