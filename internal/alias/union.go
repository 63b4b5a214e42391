package alias

import (
	"sort"

	"mmlpt/internal/packet"
)

// Union accumulates alias evidence across traces (Sec 5.2's aggregated
// router view): Accepted sets from different traces union transitively,
// so router identities grow as evidence accumulates. Merging is monotone
// — a union-find cannot split.
//
// The canonical representative of a component is its smallest address.
// Because a component's membership depends only on the *set* of unions
// applied, representatives and the sorted groups are stable under any
// insertion order — the property that lets a sharded atlas merge be
// deterministic for every worker count.
type Union struct {
	parent map[packet.Addr]packet.Addr
}

// NewUnion returns an empty evidence accumulator.
func NewUnion() *Union {
	return &Union{parent: make(map[packet.Addr]packet.Addr)}
}

// Find returns the canonical representative of a's component: the
// smallest address merged with a, or a itself if never merged.
func (u *Union) Find(a packet.Addr) packet.Addr {
	p, ok := u.parent[a]
	if !ok || p == a {
		return a
	}
	root := u.Find(p)
	u.parent[a] = root
	return root
}

// Add records positive evidence that a and b are aliases, merging their
// components.
func (u *Union) Add(a, b packet.Addr) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	// The smaller root stays the root, keeping the invariant that a
	// component's root is its minimum address.
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

// find is Find plus registration: the address joins the forest even as
// a singleton, so UnsortedGroups can enumerate every address ever seen.
func (u *Union) find(a packet.Addr) packet.Addr {
	if _, ok := u.parent[a]; !ok {
		u.parent[a] = a
	}
	return u.Find(a)
}

// AddSet merges every address of one trace's alias set. Empty and
// singleton sets carry no pairwise evidence and are no-ops.
func (u *Union) AddSet(addrs []packet.Addr) {
	if len(addrs) < 2 {
		return
	}
	for _, a := range addrs[1:] {
		u.Add(addrs[0], a)
	}
}

// UnsortedGroups returns the components holding two or more addresses —
// the aggregated routers — with no ordering guarantee, inside or across
// groups. Collecting them is O(n), so a caller that holds a lock around
// the union can do the sorting — the expensive part at scale — outside
// the critical section via SortGroups.
func (u *Union) UnsortedGroups() [][]packet.Addr {
	byRoot := make(map[packet.Addr][]packet.Addr)
	for a := range u.parent {
		r := u.Find(a)
		byRoot[r] = append(byRoot[r], a)
	}
	var out [][]packet.Addr
	for _, g := range byRoot {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	return out
}

// SortGroups sorts components into canonical order in place — each
// group ascending, the list by each group's first (minimum) address —
// and returns its argument.
func SortGroups(groups [][]packet.Addr) [][]packet.Addr {
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}
