// Package serve is the unified atlas query layer: one API over an
// immutable snapshot generation, shared by the atlas CLI, the atlasd
// HTTP service, and future atlas-prior probing. A generation wraps an
// indexed snapshot (traceio.AtlasReader) with lazy per-shard decoding
// behind an LRU, so point queries — Router, Provenance — touch only the
// shard(s) that own the queried address instead of decoding the file.
// Swap atomically publishes a new generation while in-flight queries
// drain on the old one; readers never block writers and vice versa.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mmlpt/internal/atlas"
	"mmlpt/internal/packet"
	"mmlpt/internal/traceio"
)

// ErrNotFound reports a queried address absent from the snapshot.
// Callers map it to exit 1 (CLI) or 404 (HTTP).
var ErrNotFound = errors.New("address not in atlas")

// ErrClosed reports queries against a closed service.
var ErrClosed = errors.New("atlas service closed")

// DefaultCacheShards is the per-generation decoded-shard budget when
// Options.CacheShards is zero.
const DefaultCacheShards = 8

// Options configures a Service.
type Options struct {
	// CacheShards bounds how many decoded shards a generation keeps
	// resident. Least-recently-used shards are evicted beyond it.
	CacheShards int
}

// Metrics is a snapshot of the service's cumulative counters.
type Metrics struct {
	ShardDecodes   uint64 // shards decoded from disk (cache misses)
	CacheHits      uint64 // queries served from resident shards
	CacheEvictions uint64 // decoded shards dropped by the LRU
	Swaps          uint64 // generations published after the first
}

// Service answers atlas queries from the current snapshot generation.
// All methods are safe for concurrent use.
type Service struct {
	opt Options
	gen atomic.Pointer[generation]

	swapMu sync.Mutex // serializes Swap and Close

	shardDecodes   atomic.Uint64
	cacheHits      atomic.Uint64
	cacheEvictions atomic.Uint64
	swaps          atomic.Uint64
}

// Open starts a service over the snapshot at path.
func Open(path string, opt Options) (*Service, error) {
	if opt.CacheShards <= 0 {
		opt.CacheShards = DefaultCacheShards
	}
	s := &Service{opt: opt}
	g, err := s.newGeneration(path)
	if err != nil {
		return nil, err
	}
	s.gen.Store(g)
	return s, nil
}

// Swap atomically publishes the snapshot at path as the new generation.
// In-flight queries finish on the old generation, whose reader closes
// once the last of them releases it. On error the old generation stays
// current.
func (s *Service) Swap(path string) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.gen.Load() == nil {
		return ErrClosed
	}
	g, err := s.newGeneration(path)
	if err != nil {
		return err
	}
	old := s.gen.Swap(g)
	s.swaps.Add(1)
	old.retire()
	return nil
}

// Close retires the current generation. Queries after Close return
// ErrClosed; in-flight queries finish normally.
func (s *Service) Close() error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.gen.Swap(nil)
	if old != nil {
		old.retire()
	}
	return nil
}

// Metrics returns the cumulative counters.
func (s *Service) Metrics() Metrics {
	return Metrics{
		ShardDecodes:   s.shardDecodes.Load(),
		CacheHits:      s.cacheHits.Load(),
		CacheEvictions: s.cacheEvictions.Load(),
		Swaps:          s.swaps.Load(),
	}
}

// Stats summarizes the current generation from its header alone — no
// shard is decoded.
func (s *Service) Stats() (atlas.Stats, error) {
	g, err := s.acquire()
	if err != nil {
		return atlas.Stats{}, err
	}
	defer g.release()
	return atlas.HeaderStats(g.r.Header()), nil
}

// Path returns the snapshot path backing the current generation.
func (s *Service) Path() (string, error) {
	g, err := s.acquire()
	if err != nil {
		return "", err
	}
	defer g.release()
	return g.path, nil
}

// Pairs returns the surveyed (src, dst) pairs, loaded once at open.
func (s *Service) Pairs() ([]traceio.AtlasPair, error) {
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer g.release()
	return g.r.Pairs(), nil
}

// Provenance returns the sorted (pair, hop) observations of addr,
// decoding only the owning shard. ErrNotFound if the address is absent.
func (s *Service) Provenance(addr packet.Addr) ([]atlas.Obs, error) {
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer g.release()
	n, _, err := g.lookup(addr)
	if err != nil {
		return nil, err
	}
	out := make([]atlas.Obs, len(n.Seen))
	for i, o := range n.Seen {
		out[i] = atlas.Obs{Pair: o[0], Hop: o[1]}
	}
	return out, nil
}

// Router returns the router (alias component) owning addr: the full
// member list when the address aliased with others, or the singleton
// [addr] when it was observed but never aliased. A cold lookup decodes
// the owning shard, plus the representative's shard when the component
// straddles two. ErrNotFound if the address is absent entirely.
func (s *Service) Router(addr packet.Addr) ([]packet.Addr, error) {
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer g.release()
	n, _, err := g.lookup(addr)
	if err != nil {
		return nil, err
	}
	if n.Router == "" {
		return []packet.Addr{addr}, nil
	}
	rep, err := packet.ParseAddr(n.Router)
	if err != nil {
		return nil, fmt.Errorf("serve: corrupt router rep %q: %w", n.Router, err)
	}
	v, err := g.shard(g.r.ShardFor(rep))
	if err != nil {
		return nil, err
	}
	members, ok := v.routers[n.Router]
	if !ok {
		return nil, fmt.Errorf("serve: router %s missing from its shard", n.Router)
	}
	out := make([]packet.Addr, len(members))
	for i, m := range members {
		p, err := packet.ParseAddr(m)
		if err != nil {
			return nil, fmt.Errorf("serve: corrupt router member %q: %w", m, err)
		}
		out[i] = p
	}
	return out, nil
}

// Routers returns every multi-interface router component, in canonical
// snapshot order. This decodes all shards (it is the CLI bulk listing,
// not a point query).
func (s *Service) Routers() ([][]packet.Addr, error) {
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer g.release()
	var out [][]packet.Addr
	for i := 0; i < g.r.NumShards(); i++ {
		v, err := g.shard(i)
		if err != nil {
			return nil, err
		}
		for _, members := range v.routerList {
			set := make([]packet.Addr, len(members))
			for j, m := range members {
				p, err := packet.ParseAddr(m)
				if err != nil {
					return nil, fmt.Errorf("serve: corrupt router member %q: %w", m, err)
				}
				set[j] = p
			}
			out = append(out, set)
		}
	}
	return out, nil
}

// ForEachNode calls fn for every node record in the snapshot, in
// canonical snapshot order (shard by shard, each shard's node order).
// Like Routers, this is a bulk operation that decodes all shards; prior
// extraction uses it to rebuild per-pair topology from the provenance
// and successor sections. Iteration stops at the first error fn returns.
func (s *Service) ForEachNode(fn func(*traceio.AtlasNodeV2) error) error {
	g, err := s.acquire()
	if err != nil {
		return err
	}
	defer g.release()
	for i := 0; i < g.r.NumShards(); i++ {
		v, err := g.shard(i)
		if err != nil {
			return err
		}
		for _, n := range v.nodeList {
			if err := fn(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// DiamondCensus returns the cross-pair diamond census, decoded lazily
// once per generation from the diamonds section alone.
func (s *Service) DiamondCensus() ([]traceio.AtlasDiamond, error) {
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer g.release()
	g.diamondsOnce.Do(func() {
		g.diamonds, g.diamondsErr = g.r.ReadDiamonds()
	})
	return g.diamonds, g.diamondsErr
}

// acquire pins the current generation against close. Every successful
// acquire must be paired with release.
func (s *Service) acquire() (*generation, error) {
	for {
		g := s.gen.Load()
		if g == nil {
			return nil, ErrClosed
		}
		g.refs.Add(1)
		if s.gen.Load() == g {
			return g, nil
		}
		// A swap retired g between Load and Add; our ref may be the
		// one keeping it open. Drop it and take the new generation.
		g.release()
	}
}

// generation is one immutable published snapshot: the indexed reader,
// an LRU of decoded shard views, and a refcount that defers the reader
// close until the last in-flight query releases it after retirement.
type generation struct {
	svc  *Service
	r    *traceio.AtlasReader
	path string

	refs    atomic.Int64
	retired atomic.Bool
	closer  sync.Once

	mu    sync.Mutex
	cache map[int]*shardSlot
	tick  uint64

	diamondsOnce sync.Once
	diamonds     []traceio.AtlasDiamond
	diamondsErr  error
}

// shardSlot is a cache entry; ready closes when the decode (by whoever
// installed the slot) finishes, so concurrent readers of the same cold
// shard trigger exactly one disk read.
type shardSlot struct {
	ready chan struct{}
	view  *shardView
	err   error
	tick  uint64
}

// shardView is one decoded shard indexed for point lookups.
type shardView struct {
	nodes      map[string]*traceio.AtlasNodeV2
	nodeList   []*traceio.AtlasNodeV2 // snapshot order, for bulk iteration
	routers    map[string][]string    // representative → member addrs
	routerList [][]string             // snapshot order, for bulk listing
}

func (s *Service) newGeneration(path string) (*generation, error) {
	r, err := traceio.OpenAtlasFile(path)
	if err != nil {
		return nil, err
	}
	return &generation{
		svc: s, r: r, path: path,
		cache: make(map[int]*shardSlot),
	}, nil
}

func (g *generation) retire() {
	g.retired.Store(true)
	if g.refs.Load() == 0 {
		g.closer.Do(func() { g.r.Close() })
	}
}

func (g *generation) release() {
	if g.refs.Add(-1) == 0 && g.retired.Load() {
		g.closer.Do(func() { g.r.Close() })
	}
}

// lookup finds addr's node record, decoding only its owning shard.
func (g *generation) lookup(addr packet.Addr) (*traceio.AtlasNodeV2, *shardView, error) {
	v, err := g.shard(g.r.ShardFor(addr))
	if err != nil {
		return nil, nil, err
	}
	n, ok := v.nodes[addr.String()]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	return n, v, nil
}

// shard returns shard i's decoded view, loading it through the LRU.
func (g *generation) shard(i int) (*shardView, error) {
	g.mu.Lock()
	if slot, ok := g.cache[i]; ok {
		g.tick++
		slot.tick = g.tick
		g.mu.Unlock()
		<-slot.ready
		if slot.err == nil {
			g.svc.cacheHits.Add(1)
		}
		return slot.view, slot.err
	}
	slot := &shardSlot{ready: make(chan struct{})}
	g.tick++
	slot.tick = g.tick
	g.cache[i] = slot
	g.evictLocked(i)
	g.mu.Unlock()

	sh, err := g.r.ReadShard(i)
	if err != nil {
		slot.err = err
		close(slot.ready)
		g.mu.Lock()
		if g.cache[i] == slot {
			delete(g.cache, i) // don't cache failures
		}
		g.mu.Unlock()
		return nil, err
	}
	g.svc.shardDecodes.Add(1)
	v := &shardView{
		nodes:    make(map[string]*traceio.AtlasNodeV2, len(sh.Nodes)),
		nodeList: make([]*traceio.AtlasNodeV2, len(sh.Nodes)),
		routers:  make(map[string][]string, len(sh.Routers)),
	}
	for j := range sh.Nodes {
		v.nodes[sh.Nodes[j].Addr] = &sh.Nodes[j]
		v.nodeList[j] = &sh.Nodes[j]
	}
	for _, r := range sh.Routers {
		v.routers[r.Addrs[0]] = r.Addrs
		v.routerList = append(v.routerList, r.Addrs)
	}
	slot.view = v
	close(slot.ready)
	return v, nil
}

// evictLocked drops least-recently-used completed slots beyond the
// budget. The slot at keep (the one being installed) is never evicted.
func (g *generation) evictLocked(keep int) {
	for len(g.cache) > g.svc.opt.CacheShards {
		victim, oldest := -1, uint64(0)
		for i, slot := range g.cache {
			if i == keep {
				continue
			}
			select {
			case <-slot.ready:
			default:
				continue // still decoding; its loader will publish it
			}
			if victim == -1 || slot.tick < oldest {
				victim, oldest = i, slot.tick
			}
		}
		if victim == -1 {
			return
		}
		delete(g.cache, victim)
		g.svc.cacheEvictions.Add(1)
	}
}
