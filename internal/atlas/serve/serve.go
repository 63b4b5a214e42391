// Package serve is the unified atlas query layer: one API over an
// immutable snapshot generation, shared by the atlas CLI, the atlasd
// HTTP service, and atlas-prior probing. A generation wraps an indexed
// snapshot (traceio.AtlasReader) and builds a line index of each shard
// the first time a point query — Router, Provenance — touches it: that
// first touch decodes and validates the whole block once, and every
// point query after it reads the one line it needs. Swap atomically
// publishes a new generation while in-flight queries drain on the old
// one; readers never block writers and vice versa.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mmlpt/internal/atlas"
	"mmlpt/internal/packet"
	"mmlpt/internal/par"
	"mmlpt/internal/traceio"
)

// ErrNotFound reports a queried address absent from the snapshot.
// Callers map it to exit 1 (CLI) or 404 (HTTP).
var ErrNotFound = errors.New("address not in atlas")

// ErrClosed reports queries against a closed service.
var ErrClosed = errors.New("atlas service closed")

// Options configures a Service.
type Options struct {
	// CacheShards is ignored: a generation indexes every shard a point
	// query touches, with nothing to bound. It is kept only because the
	// repository benchmark still sets it (ROADMAP 17f).
	CacheShards int
}

// Metrics is a snapshot of the service's cumulative counters.
type Metrics struct {
	ShardDecodes uint64 // validating block decodes that built a shard's line index
	CacheHits    uint64 // point-query shard lookups answered from an indexed shard
	// CacheEvictions is always 0: nothing is evicted. It is kept only
	// because the repository benchmark still reads it (ROADMAP 17f).
	CacheEvictions uint64
}

// Service answers atlas queries from the current snapshot generation.
// All methods are safe for concurrent use.
type Service struct {
	gen atomic.Pointer[generation]

	swapMu sync.Mutex // serializes Swap and Close

	shardDecodes atomic.Uint64
	cacheHits    atomic.Uint64
}

// Open starts a service over the snapshot at path.
func Open(path string, _ Options) (*Service, error) {
	s := &Service{}
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
	s.gen.Swap(g).retire()
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
		ShardDecodes: s.shardDecodes.Load(),
		CacheHits:    s.cacheHits.Load(),
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
// reading only its node line from the owning shard. ErrNotFound if the
// address is absent.
func (s *Service) Provenance(addr packet.Addr) ([]atlas.Obs, error) {
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer g.release()
	var out []atlas.Obs
	err = g.node(addr, func(n *traceio.AtlasNodeV2) {
		out = make([]atlas.Obs, len(n.Seen))
		for i, o := range n.Seen {
			out[i] = atlas.Obs{Pair: o[0], Hop: o[1]}
		}
	})
	return out, err
}

// Router returns the router (alias component) owning addr: the full
// member list when the address aliased with others, or the singleton
// [addr] when it was observed but never aliased. It reads addr's node
// line and then the representative's router line, whose shard is a
// second one when the component straddles two. ErrNotFound if the
// address is absent entirely.
func (s *Service) Router(addr packet.Addr) ([]packet.Addr, error) {
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer g.release()
	var rep packet.Addr
	if err := g.node(addr, func(n *traceio.AtlasNodeV2) { rep = n.Router }); err != nil {
		return nil, err
	}
	if rep == 0 {
		return []packet.Addr{addr}, nil
	}
	ix, err := g.index(g.r.ShardFor(rep))
	if err != nil {
		return nil, err
	}
	var out []packet.Addr
	found, err := ix.Router(rep, func(rt *traceio.AtlasRouter) { out = slices.Clone(rt.Addrs) })
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("serve: router %s missing from its shard", rep)
	}
	return out, nil
}

// Routers returns every multi-interface router component, in canonical
// snapshot order. This decodes every shard whole (it is the CLI bulk
// listing, not a point query).
func (s *Service) Routers() ([][]packet.Addr, error) {
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer g.release()
	var out [][]packet.Addr
	for i := 0; i < g.r.NumShards(); i++ {
		sh, err := g.r.ReadShard(i)
		if err != nil {
			return nil, err
		}
		for _, rt := range sh.Routers {
			out = append(out, slices.Clone(rt.Addrs))
		}
	}
	return out, nil
}

// ForEachNode calls fn for every node record in the snapshot, in
// canonical snapshot order (shard by shard, each shard's node order), on
// the caller's goroutine. Like Routers, this is a bulk operation that
// decodes every shard; prior extraction uses it to rebuild per-pair
// topology from the provenance and successor sections. The decodes run
// ahead of fn on GOMAXPROCS workers, but shard i starts decoding only
// once fn has seen shard i-workers-1 whole, so at most workers+1 decoded
// shards are alive at once. Iteration stops at the first error, fn's or
// a decode's; the generation stays pinned until the scan returns.
func (s *Service) ForEachNode(fn func(*traceio.AtlasNodeV2) error) error {
	g, err := s.acquire()
	if err != nil {
		return err
	}
	defer g.release()
	workers := runtime.GOMAXPROCS(0)
	var (
		mu      sync.Mutex
		ahead   = sync.NewCond(&mu)
		scanned int  // shards fn has seen whole
		stopped bool // a decode or fn failed: waiting decodes give up
	)
	stop := func() {
		mu.Lock()
		stopped = true
		mu.Unlock()
		ahead.Broadcast()
	}
	return par.OrderedErr(g.r.NumShards(), workers, func(i int) (*traceio.AtlasShard, error) {
		mu.Lock()
		for i > scanned+workers && !stopped {
			ahead.Wait()
		}
		gaveUp := stopped
		mu.Unlock()
		if gaveUp {
			return nil, errScanStopped
		}
		sh, err := readShard(g.r, i)
		if err != nil {
			stop()
		}
		return sh, err
	}, func(i int, sh *traceio.AtlasShard) error {
		for j := range sh.Nodes {
			if err := fn(&sh.Nodes[j]); err != nil {
				stop()
				return err
			}
		}
		mu.Lock()
		scanned = i + 1
		mu.Unlock()
		ahead.Broadcast()
		return nil
	})
}

// errScanStopped is what a ForEachNode decode returns when it gives up
// because an earlier shard failed; par.OrderedErr reports the earlier
// error instead.
var errScanStopped = errors.New("serve: scan stopped")

// readShard is ForEachNode's shard decode, a variable so tests can watch
// how far the decodes run ahead of the scan.
var readShard = (*traceio.AtlasReader).ReadShard

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
// the line index of each shard a point query has touched, and a
// refcount that defers the reader close until the last in-flight query
// releases it after retirement. The line indexes die with it.
type generation struct {
	svc *Service
	r   *traceio.AtlasReader

	refs    atomic.Int64
	retired atomic.Bool
	closer  sync.Once

	shards []atomic.Pointer[indexSlot] // by shard number

	diamondsOnce sync.Once
	diamonds     []traceio.AtlasDiamond
	diamondsErr  error
}

// indexSlot is one shard's line index, built once: concurrent first
// touches wait in once for one validating decode. A failed decode is
// not kept — its slot is unpublished, so the next query decodes again.
type indexSlot struct {
	once sync.Once
	ix   *traceio.AtlasShardIndex
	err  error
}

func (s *Service) newGeneration(path string) (*generation, error) {
	r, err := traceio.OpenAtlasFile(path)
	if err != nil {
		return nil, err
	}
	return &generation{
		svc: s, r: r,
		shards: make([]atomic.Pointer[indexSlot], r.NumShards()),
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

// node reads addr's node line from its owning shard and calls fn with
// it (see traceio.AtlasShardIndex.Node); ErrNotFound if there is none.
func (g *generation) node(addr packet.Addr, fn func(*traceio.AtlasNodeV2)) error {
	ix, err := g.index(g.r.ShardFor(addr))
	if err != nil {
		return err
	}
	found, err := ix.Node(addr, fn)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	return nil
}

// index returns shard i's line index, building it on the first touch.
func (g *generation) index(i int) (*traceio.AtlasShardIndex, error) {
	slot := g.shards[i].Load()
	for slot == nil {
		g.shards[i].CompareAndSwap(nil, new(indexSlot))
		slot = g.shards[i].Load()
	}
	built := false
	slot.once.Do(func() {
		built = true
		slot.ix, slot.err = g.r.IndexShard(i)
		if slot.err != nil {
			g.shards[i].CompareAndSwap(slot, nil)
			return
		}
		g.svc.shardDecodes.Add(1)
	})
	if slot.err == nil && !built {
		g.svc.cacheHits.Add(1)
	}
	return slot.ix, slot.err
}
