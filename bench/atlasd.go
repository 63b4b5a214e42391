package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

const (
	// atlasWorldSeed fixes the synthetic atlas; the benchmark seed draws
	// the query streams.
	atlasWorldSeed = 7
	// coldStarts is how many times atlasd is started cold per run.
	coldStarts = 21
	// hotShards is how many shards the hot set lives in (half the
	// server's 8-shard LRU); hotAddrs is the hot set's size.
	hotShards = 4
	hotAddrs  = 256
	// censusTemplates bounds the diamond census (and with it the
	// /v1/census body) the way shared diamond templates do in a survey.
	censusTemplates = 256
)

// query is one planned request with the answer it must get.
type query struct {
	path   string
	status int
	body   []byte
}

// atlasWorld is the set-up product of atlasd-queries.
type atlasWorld struct {
	snapshot string
	shards   int
	nodes    int
	addrs    []packet.Addr   // every node address, ascending
	byShard  [][]packet.Addr // the same, grouped by owning shard
	hot      []packet.Addr
	absent   []packet.Addr
}

// buildAtlasWorld synthesizes an atlas with routers and a diamond census
// through the public ingest calls and saves it as a v2 snapshot of at
// least minShards shard blocks.
func buildAtlasWorld(dir string, minShards int) (*atlasWorld, error) {
	a := atlas.New(atlas.Options{})
	rng := nprand.New(atlasWorldSeed)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	dstAlloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(203, 0, 113, 1))
	spec := fakeroute.GenSpec{Diamonds: 3, WidthMin: 2, WidthMax: 4, LenMin: 2, LenMax: 4}
	target := minShards * traceio.DefaultAtlasShardNodes
	type ends struct{ div, conv string }
	var templates []ends
	seen := make(map[packet.Addr]struct{})
	for pair := 0; len(seen) < target; pair++ {
		dst := dstAlloc.Next()
		g := fakeroute.GenerateMultipath(rng.Fork(uint64(pair)), alloc, dst, spec).Graph
		a.AddGraph(pair, g)
		byHop := make(map[int][]packet.Addr)
		for vi := range g.Vertices {
			v := &g.Vertices[vi]
			if v.Addr == topo.StarAddr {
				continue
			}
			seen[v.Addr] = struct{}{}
			byHop[v.Hop] = append(byHop[v.Hop], v.Addr)
		}
		for _, set := range byHop {
			if len(set) >= 2 {
				a.AddAliasSet(set)
			}
		}
		if len(templates) < censusTemplates {
			first, last := g.V(0).Addr, g.V(topo.VertexID(len(g.Vertices)-1)).Addr
			templates = append(templates, ends{first.String(), last.String()})
		}
		t := templates[pair%len(templates)]
		a.AddDiamond(pair, traceio.SurveyDiamond{Div: t.div, Conv: t.conv, MaxWidth: 3, MaxLength: 3})
	}
	w := &atlasWorld{snapshot: filepath.Join(dir, "world.atlas")}
	if err := a.Save(w.snapshot); err != nil {
		return nil, err
	}
	for addr := range seen {
		w.addrs = append(w.addrs, addr)
	}
	sort.Slice(w.addrs, func(i, j int) bool { return w.addrs[i] < w.addrs[j] })

	r, err := traceio.OpenAtlasFile(w.snapshot)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	w.shards, w.nodes = r.NumShards(), r.Header().Nodes
	if w.shards < minShards {
		return nil, fmt.Errorf("synthetic atlas has %d shards, want at least %d", w.shards, minShards)
	}
	// The hot set: evenly spaced addresses of hotShards shards spread
	// over the address range.
	w.byShard = make([][]packet.Addr, w.shards)
	for _, addr := range w.addrs {
		s := r.ShardFor(addr)
		w.byShard[s] = append(w.byShard[s], addr)
	}
	for k := 0; k < hotShards; k++ {
		in := w.byShard[k*w.shards/hotShards]
		per := hotAddrs / hotShards
		for j := 0; j < per && j < len(in); j++ {
			w.hot = append(w.hot, in[j*len(in)/per])
		}
	}
	// Addresses the atlas never saw (TEST-NET-1): 404 is their expected
	// answer.
	for i := 1; i <= 32; i++ {
		w.absent = append(w.absent, packet.AddrFrom4(192, 0, 2, byte(i)))
	}
	return w, nil
}

// planBlock is the length of one block of a query plan: every block
// holds the mix in exact proportion.
const planBlock = 100

// plan draws one client's query stream in blocks of planBlock queries.
// Every block holds exactly 45 /v1/router and 45 /v1/addr point queries
// (36 on the hot set and 9 cold each), 5 /v1/census, 3 /v1/stats and 2
// absent addresses, in an order the seed shuffles. The cold queries
// walk the shards in a seed-shuffled cycle and pick a random address
// inside each, so they are uniform over the address space and the
// server's 8-shard LRU keeps evicting and decoding. Stratifying the mix
// this way keeps the work per pass (above all the number of shard
// decodes) nearly the same for every seed and every prefix of the plan;
// an independent draw per query moved queries/s by ±10 % between runs.
func (w *atlasWorld) plan(rng *nprand.Source, n int) []string {
	cycle := rng.Perm(len(w.byShard))
	next := 0
	cold := func() packet.Addr {
		in := w.byShard[cycle[next%len(cycle)]]
		next++
		return in[rng.Intn(len(in))]
	}
	hot := func() packet.Addr { return w.hot[rng.Intn(len(w.hot))] }
	out := make([]string, 0, n+planBlock)
	for len(out) < n {
		block := make([]string, 0, planBlock)
		for _, route := range []string{"/v1/router/", "/v1/addr/"} {
			for i := 0; i < 36; i++ {
				block = append(block, route+hot().String())
			}
			for i := 0; i < 9; i++ {
				block = append(block, route+cold().String())
			}
			block = append(block, route+w.absent[rng.Intn(len(w.absent))].String())
		}
		block = append(block, "/v1/census", "/v1/census", "/v1/census", "/v1/census", "/v1/census",
			"/v1/stats", "/v1/stats", "/v1/stats")
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// expected renders, from the in-process serve.Service, the status and
// body atlasd must answer for every distinct path of the plans. The
// JSON shapes mirror cmd/atlasd/handler.go, which is a main package and
// cannot be imported; a drift between the two fails every request.
func expected(svc *serve.Service, paths []string) (map[string]*query, error) {
	render := func(status int, v any) *query {
		var b bytes.Buffer
		_ = json.NewEncoder(&b).Encode(v)
		return &query{status: status, body: b.Bytes()}
	}
	type errorResponse struct {
		Error string `json:"error"`
	}
	fail := func(err error) (*query, error) {
		if errors.Is(err, serve.ErrNotFound) {
			return render(http.StatusNotFound, errorResponse{err.Error()}), nil
		}
		return nil, err
	}
	one := func(path string) (*query, error) {
		switch {
		case path == "/v1/stats":
			st, err := svc.Stats()
			if err != nil {
				return nil, err
			}
			return render(http.StatusOK, struct {
				Pairs    int `json:"pairs"`
				Nodes    int `json:"nodes"`
				Edges    int `json:"edges"`
				Routers  int `json:"routers"`
				Diamonds int `json:"diamonds"`
			}{st.Pairs, st.Nodes, st.Edges, st.Routers, st.Diamonds}), nil
		case path == "/v1/census":
			ds, err := svc.DiamondCensus()
			if err != nil {
				return nil, err
			}
			type entry struct {
				Div       string `json:"div"`
				Conv      string `json:"conv"`
				Count     int    `json:"count"`
				Pairs     int    `json:"pairs"`
				MaxWidth  int    `json:"max_width"`
				MaxLength int    `json:"max_length"`
			}
			resp := struct {
				Diamonds []entry `json:"diamonds"`
			}{make([]entry, len(ds))}
			for i, d := range ds {
				resp.Diamonds[i] = entry{d.Div, d.Conv, d.Count, len(d.Pairs), d.MaxWidth, d.MaxLength}
			}
			return render(http.StatusOK, resp), nil
		case strings.HasPrefix(path, "/v1/router/"):
			addr, err := packet.ParseAddr(strings.TrimPrefix(path, "/v1/router/"))
			if err != nil {
				return nil, err
			}
			members, err := svc.Router(addr)
			if err != nil {
				return fail(err)
			}
			resp := struct {
				Addr   string   `json:"addr"`
				Router []string `json:"router"`
			}{addr.String(), make([]string, len(members))}
			for i, m := range members {
				resp.Router[i] = m.String()
			}
			return render(http.StatusOK, resp), nil
		default:
			addr, err := packet.ParseAddr(strings.TrimPrefix(path, "/v1/addr/"))
			if err != nil {
				return nil, err
			}
			obs, err := svc.Provenance(addr)
			if err != nil {
				return fail(err)
			}
			type seen struct {
				Pair int `json:"pair"`
				Hop  int `json:"hop"`
			}
			resp := struct {
				Addr string `json:"addr"`
				Seen []seen `json:"seen"`
			}{addr.String(), make([]seen, len(obs))}
			for i, o := range obs {
				resp.Seen[i] = seen{o.Pair, o.Hop}
			}
			return render(http.StatusOK, resp), nil
		}
	}
	// Sorted paths walk the address space in order, so the in-process
	// service decodes each shard once per route instead of thrashing.
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	out := make(map[string]*query, len(sorted))
	for _, p := range sorted {
		if _, ok := out[p]; ok {
			continue
		}
		q, err := one(p)
		if err != nil {
			return nil, fmt.Errorf("expected answer for %s: %w", p, err)
		}
		q.path = p
		out[p] = q
	}
	return out, nil
}

// buildAtlasd compiles cmd/atlasd from the checkout's source. The
// binary path is stable across runs so an up-to-date build is a no-op.
func buildAtlasd(c *runCtx) (string, error) {
	bin := filepath.Join(c.binDir, "atlasd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/atlasd")
	cmd.Dir = c.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/atlasd: %v\n%s", err, out)
	}
	return bin, nil
}

// atlasdProc is one running atlasd.
type atlasdProc struct {
	cmd  *exec.Cmd
	base string
}

// startAtlasd execs atlasd on a free loopback port and returns once
// probe (a path that must answer 200) does; the elapsed time from exec
// to that first correct answer is the cold-start latency.
func startAtlasd(bin, snapshot, probe string, want []byte) (*atlasdProc, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-snapshot", snapshot, "-listen", addr)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &atlasdProc{cmd: cmd, base: "http://" + addr}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for time.Since(t0) < 10*time.Second {
		resp, err := client.Get(p.base + probe)
		if err != nil {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cold := time.Since(t0)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			p.stop()
			return nil, 0, fmt.Errorf("atlasd's first answer to %s was %d %q", probe, resp.StatusCode, body)
		}
		return p, cold, nil
	}
	p.stop()
	return nil, 0, fmt.Errorf("atlasd did not answer within 10s")
}

// stop terminates the server, waits for it and returns its peak RSS.
func (p *atlasdProc) stop() (peakRSSMB float64) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
		}
	}()
	_ = p.cmd.Wait()
	close(done)
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakRSSMB = float64(ru.Maxrss) / 1024
	}
	return peakRSSMB
}

// runAtlasdQueries is the atlas read path through the real binary: cold
// starts, then a closed loop of keep-alive connections over loopback.
func runAtlasdQueries(c *runCtx) error {
	clients := c.procs
	planLen := c.pick(20000, 300)
	passLen := c.pick(500, 100) // requests per client per pass
	minShards := c.pick(24, 2)
	c.rep.Load = fmt.Sprintf("closed loop, %d keep-alive connections, one atlasd process", clients)
	c.rep.Loopback = true

	bin, err := buildAtlasd(c) // a build, not set-up: kept out of setup_s
	if err != nil {
		return err
	}

	var setup []float64
	var w *atlasWorld
	var plans [][]string
	var probePath string
	var want map[string]*query
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if w, err = buildAtlasWorld(c.scratch, minShards); err != nil {
			return err
		}
		rng := nprand.New(c.seed)
		plans = plans[:0]
		probePath = "/v1/router/" + w.hot[0].String() // what a cold start is probed with
		all := []string{probePath}
		for k := 0; k < clients; k++ {
			p := w.plan(rng.Fork(uint64(k)), planLen)
			plans = append(plans, p)
			all = append(all, p...)
		}
		svc, err := serve.Open(w.snapshot, serve.Options{})
		if err != nil {
			return err
		}
		want, err = expected(svc, all)
		svc.Close()
		if err != nil {
			return err
		}
		setup = append(setup, seconds(time.Since(t0)))
	}
	c.rep.Sizes = map[string]int{
		"nodes": w.nodes, "shards": w.shards, "hot_addrs": len(w.hot), "plan_len": planLen,
		"clients": clients, "cold_starts": c.pick(coldStarts, 3), "world_seed": atlasWorldSeed,
	}
	probeWant := want[probePath]

	// Cold starts: exec → first correct answer.
	var cold []float64
	for i := 0; i < c.pick(coldStarts, 3); i++ {
		t0 := time.Now()
		p, d, err := startAtlasd(bin, w.snapshot, probePath, probeWant.body)
		if err != nil {
			return err
		}
		c.tr.add("open", -1, i, t0, t0.Add(d))
		p.stop()
		c.attempted(1, 0)
		cold = append(cold, seconds(d)*1e3)
	}

	// The closed loop against one long-lived server.
	srv, _, err := startAtlasd(bin, w.snapshot, probePath, probeWant.body)
	if err != nil {
		return err
	}
	var (
		mu        sync.Mutex
		latencies []float64 // µs
		notFound  int
		respBytes int64
		requests  int
		failed    int
	)
	next := make([]int, clients)
	conns := make([]*http.Client, clients)
	for k := range conns {
		conns[k] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	pass := func(tr *tracer, timed bool) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		t0 := time.Now()
		root := tr.begin("pass", -1, -1, t0)
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				lat := make([]float64, 0, passLen)
				var nf, bad int
				var nbytes int64
				for i := 0; i < passLen; i++ {
					path := plans[k][next[k]%planLen]
					next[k]++
					q := want[path]
					ts := time.Now()
					resp, err := conns[k].Get(srv.base + path)
					if err != nil {
						errs[k] = err
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					te := time.Now()
					if err != nil {
						errs[k] = err
						return
					}
					tr.add("query", root, k*planLen+i, ts, te)
					lat = append(lat, float64(te.Sub(ts).Nanoseconds())/1e3)
					nbytes += int64(len(body))
					if resp.StatusCode == http.StatusNotFound {
						nf++
					}
					if resp.StatusCode != q.status || !bytes.Equal(body, q.body) {
						bad++
					}
				}
				mu.Lock()
				requests += len(lat)
				failed += bad
				if timed {
					latencies = append(latencies, lat...)
					notFound += nf
					respBytes += nbytes
				}
				mu.Unlock()
			}(k)
		}
		wg.Wait()
		end := time.Now()
		tr.finish(root, end)
		return end.Sub(t0), errors.Join(errs...)
	}
	stopAll := func() float64 {
		for _, cl := range conns {
			cl.CloseIdleConnections()
		}
		return srv.stop()
	}
	if _, err := pass(nil, false); err != nil { // warm-up: connections open, hot shards decoded
		stopAll()
		return err
	}
	// Timed passes. A traced run alternates untraced and traced passes
	// (their ratio is the tracing overhead) and keeps the query spans of
	// the last traced pass only.
	var rate []float64
	budget, coldSpans := c.seconds, 0
	if c.traced {
		budget, coldSpans = c.seconds/2, len(c.tr.spans)
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		var tr *tracer
		if c.traced && i%2 == 1 {
			tr = c.tr
			tr.spans = tr.spans[:coldSpans]
		}
		d, err := pass(tr, true)
		if err != nil {
			stopAll()
			return err
		}
		rate = append(rate, float64(clients*passLen)/seconds(d))
	}
	peak := stopAll()
	c.attempted(requests, failed)
	if failed > 0 {
		c.failf("%d of %d responses differ from the in-process serve.Service answer", failed, requests)
	}
	sort.Float64s(latencies)
	p50, p99 := percentile(latencies, 0.50), percentile(latencies, 0.99)
	perResp := ratio(float64(respBytes), float64(len(latencies)))
	// Bytes per operation over one full cycle of every client's plan:
	// every response was checked byte-equal to these bodies, and unlike
	// the bytes actually served it does not depend on how far into the
	// plans the timed passes got.
	var planBytes, planOps float64
	for _, p := range plans {
		for _, path := range p {
			planBytes += float64(len(want[path].body))
			planOps++
		}
	}

	if !c.traced {
		c.put("setup_s", setup...)
		c.put("ops_per_s", rate...)
		c.put("peak_rss_mb", peak) // the server's, not the load generator's
		c.put("out_bytes_per_op", planBytes/planOps)
		c.put("cold_first_query_ms", cold...)
		c.put("queries_per_s", rate...)
		c.put("query_p50_us", p50)
		c.put("query_p99_us", p99)
		c.rep.Load += fmt.Sprintf("; %d latency samples", len(latencies))
		return nil
	}

	// Traced run: the serve layer in-process, under the same mix.
	var untraced, traced []float64
	for i, r := range rate {
		if i%2 == 1 {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	sv, err := serveLayerCosts(w, plans[0])
	if err != nil {
		return err
	}
	openMS, shardMS, _, err := snapshotReadCosts(w.snapshot)
	if err != nil {
		return err
	}
	c.put("traceio.atlas_open_ms", openMS)
	c.put("traceio.shard_decode_ms", shardMS)
	c.put("serve.open_ms", sv.openMS...)
	c.put("serve.point_query_ns", sv.hotNS)
	c.put("serve.cold_point_query_us", sv.coldUS)
	c.put("serve.shard_decodes", float64(sv.metrics.ShardDecodes))
	c.put("serve.cache_hit_share", ratio(float64(sv.metrics.CacheHits), float64(sv.metrics.CacheHits+sv.metrics.ShardDecodes)))
	c.put("serve.evictions", float64(sv.metrics.CacheEvictions))
	c.put("serve.bulk_scan_s", sv.scanS)
	c.put("atlasd.cold_first_query_ms", cold...)
	c.put("atlasd.query_p50_us", p50)
	c.put("atlasd.query_p99_us", p99)
	c.put("atlasd.http_overhead_us", p50-sv.hotNS/1e3)
	c.put("atlasd.status_404", float64(notFound))
	c.put("atlasd.bytes_per_response", perResp)
	c.put("trace.overhead_share", ratio(median(untraced), median(traced))-1)
	c.put("trace.spans", float64(len(c.tr.spans)))
	return nil
}

// serveCosts are the in-process serve-layer measurements.
type serveCosts struct {
	openMS        []float64
	hotNS, coldUS float64
	scanS         float64
	metrics       serve.Metrics
}

// serveLayerCosts measures internal/atlas/serve directly: Open, a point
// query on a resident shard, a point query that must decode its shard,
// the cache behaviour of one client's query stream, and a bulk scan.
func serveLayerCosts(w *atlasWorld, plan []string) (serveCosts, error) {
	var sc serveCosts
	for i := 0; i < 11; i++ {
		t0 := time.Now()
		svc, err := serve.Open(w.snapshot, serve.Options{})
		if err != nil {
			return sc, err
		}
		sc.openMS = append(sc.openMS, seconds(time.Since(t0))*1e3)
		svc.Close()
	}

	svc, err := serve.Open(w.snapshot, serve.Options{})
	if err != nil {
		return sc, err
	}
	defer svc.Close()
	hot := w.hot[0]
	if _, err := svc.Router(hot); err != nil {
		return sc, err
	}
	const hotN = 20000
	t0 := time.Now()
	for i := 0; i < hotN; i++ {
		if _, err := svc.Provenance(hot); err != nil {
			return sc, err
		}
		if _, err := svc.Router(hot); err != nil {
			return sc, err
		}
	}
	sc.hotNS = float64(time.Since(t0).Nanoseconds()) / (2 * hotN)

	// A one-shard cache and two addresses in different shards: every
	// query evicts the other's shard and decodes its own.
	cold, err := serve.Open(w.snapshot, serve.Options{CacheShards: 1})
	if err != nil {
		return sc, err
	}
	defer cold.Close()
	a, b := w.addrs[0], w.addrs[len(w.addrs)-1]
	const coldN = 40
	t1 := time.Now()
	for i := 0; i < coldN; i++ {
		if _, err := cold.Provenance(a); err != nil {
			return sc, err
		}
		if _, err := cold.Provenance(b); err != nil {
			return sc, err
		}
	}
	sc.coldUS = float64(time.Since(t1).Microseconds()) / (2 * coldN)

	// The head of one client's stream, replayed against a default
	// service (each miss costs a shard decode, so the whole plan would
	// take longer than the HTTP loop it explains).
	mix, err := serve.Open(w.snapshot, serve.Options{})
	if err != nil {
		return sc, err
	}
	defer mix.Close()
	if len(plan) > 3000 {
		plan = plan[:3000]
	}
	for _, p := range plan {
		switch {
		case p == "/v1/stats":
			_, err = mix.Stats()
		case p == "/v1/census":
			_, err = mix.DiamondCensus()
		case strings.HasPrefix(p, "/v1/router/"):
			_, err = mix.Router(packet.MustParseAddr(strings.TrimPrefix(p, "/v1/router/")))
		default:
			_, err = mix.Provenance(packet.MustParseAddr(strings.TrimPrefix(p, "/v1/addr/")))
		}
		if err != nil && !errors.Is(err, serve.ErrNotFound) {
			return sc, err
		}
	}
	sc.metrics = mix.Metrics()

	t2 := time.Now()
	if err := svc.ForEachNode(func(*traceio.AtlasNodeV2) error { return nil }); err != nil {
		return sc, err
	}
	sc.scanS = seconds(time.Since(t2))
	return sc, nil
}
