package survey

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/prior"
)

// churnRoutes flips the route of every fifth pair to a freshly generated
// graph, active from the first probe: those pairs' priors are stale and
// must fall back to full discovery. The replacement addresses come from a
// 172.16/12 allocator so they cannot collide with the universe's 10/8
// space, and the subset is deterministic so every worker-count variant
// sees the identical churned network.
func churnRoutes(t *testing.T, u *Universe) int {
	t.Helper()
	crng := nprand.New(0x70726368) // "prch"
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(172, 16, 0, 1))
	spec := fakeroute.GenSpec{
		Diamonds: 2, WidthMin: 2, WidthMax: 3,
		LenMin: 2, LenMax: 3, UniformWidth: true,
	}
	churned := 0
	for i, pair := range u.Pairs {
		if i%5 != 0 {
			continue
		}
		p := u.Net.Path(pair.Src, pair.Dst)
		if p == nil {
			t.Fatalf("pair %d: no fakeroute path for %v -> %v", i, pair.Src, pair.Dst)
		}
		alt := fakeroute.GenerateMultipath(crng.Fork(uint64(i)), alloc, pair.Dst, spec)
		u.Net.EnsureIfaces(alt.Graph, pair.Dst)
		p.Alt = alt.Graph
		p.AltAt = 0
		churned++
	}
	if churned == 0 {
		t.Fatal("churned no pairs; the stale-prior path would go unexercised")
	}
	return churned
}

// Determinism guard for prior-seeded surveys: with an atlas prior
// installed AND a route change invalidating part of it, the streamed
// JSONL and the atlas snapshot must stay byte-identical across worker
// counts. The prior confirmation path (prior_hops) and the mismatch
// fallback (prior_stale) are both asserted present, so the guard covers
// exactly the code the unseeded determinism test cannot reach.
func TestSurveyPriorModeByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("two full survey passes; skipped with -short")
	}
	t.Parallel()

	// Pass 1: an unseeded MDA-Lite survey builds the atlas the prior is
	// extracted from, through the same serving layer cmd/survey uses.
	u := Generate(GenConfig{Seed: 21, Pairs: 25})
	as := NewAtlasSink(atlas.Options{})
	if _, err := Run(u, RunConfig{
		Algo: AlgoMDALite, Retries: 1,
		Trace: mda.Config{Seed: 21},
		Sinks: []Sink{as},
	}); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "prior.atlas")
	if err := as.Atlas.Save(snapPath); err != nil {
		t.Fatal(err)
	}
	svc, err := serve.Open(snapPath, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := prior.FromService(svc)
	svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() == 0 {
		t.Fatal("prior index is empty; the seeded pass would run unseeded")
	}

	// Pass 2, per worker count: same universe, every fifth route changed,
	// prior-seeded re-survey. Bytes must match the workers=1 reference.
	var refJSONL, refSnapshot []byte
	var res *Result
	for _, workers := range []int{1, 4, 8} {
		ru := Generate(GenConfig{Seed: 21, Pairs: 25})
		churnRoutes(t, ru)
		path := filepath.Join(t.TempDir(), "records.jsonl")
		jsonl := NewJSONLSink(path)
		ras := NewAtlasSink(atlas.Options{})
		res, err = Run(ru, RunConfig{
			Algo: AlgoMDALite, Retries: 1,
			Trace:   mda.Config{Seed: 21},
			Prior:   ix,
			Workers: workers,
			Sinks:   []Sink{jsonl, ras},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := jsonl.Close(); err != nil {
			t.Fatal(err)
		}
		gotJSONL, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if _, err := ras.Atlas.WriteTo(&snap); err != nil {
			t.Fatal(err)
		}
		if refJSONL == nil {
			refJSONL, refSnapshot = gotJSONL, snap.Bytes()
			if len(refJSONL) == 0 {
				t.Fatal("reference run produced no records; the guard would be vacuous")
			}
			continue
		}
		if !bytes.Equal(gotJSONL, refJSONL) {
			t.Errorf("workers=%d: prior-mode JSONL differs from workers=1 reference", workers)
		}
		if !bytes.Equal(snap.Bytes(), refSnapshot) {
			t.Errorf("workers=%d: prior-mode atlas snapshot differs from workers=1 reference", workers)
		}
	}

	// Both prior paths must have fired: confirmations on unchanged routes,
	// fallbacks on churned ones — in the outcomes and in the record bytes.
	var hops, stale int
	for _, o := range res.Outcomes {
		hops += o.PriorHops
		if o.PriorStale {
			stale++
		}
	}
	if hops == 0 {
		t.Error("no hops confirmed from the prior; seeding never engaged")
	}
	if stale == 0 {
		t.Error("no stale priors despite churned routes; the fallback went unexercised")
	}
	if !bytes.Contains(refJSONL, []byte(`"prior_hops":`)) {
		t.Error("prior_hops missing from the JSONL records")
	}
	if !bytes.Contains(refJSONL, []byte(`"prior_stale":true`)) {
		t.Error("prior_stale missing from the JSONL records")
	}
}
