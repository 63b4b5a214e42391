package probe

import "mmlpt/internal/packet"

// replyArena hands out *packet.Reply values from chunked slabs: one heap
// allocation per replyArenaChunk replies instead of one per reply.
// Handed-out replies are never recycled — a chunk stays reachable as long
// as any of its replies is — so LiveProber's replies outlive the Prober
// contract's "valid until the next call".
type replyArena struct {
	chunk []packet.Reply
	used  int
}

// replyArenaChunk is the largest slab: large enough to amortize allocation
// to ~0 allocs/probe. Slabs start at replyArenaFirst and double up to it,
// so a short trace does not pay for 256 replies it never parses.
const (
	replyArenaChunk = 256
	replyArenaFirst = 16
)

func (a *replyArena) next() *packet.Reply {
	if a.used == len(a.chunk) {
		a.chunk = make([]packet.Reply, min(max(2*len(a.chunk), replyArenaFirst), replyArenaChunk))
		a.used = 0
	}
	r := &a.chunk[a.used]
	a.used++
	return r
}
