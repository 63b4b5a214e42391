package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mmlpt/internal/atlas"
	"mmlpt/internal/dispatch"
	"mmlpt/internal/experiments"
	"mmlpt/internal/survey"
)

const (
	// fleetWorldSeed is the survey seed of the fleet workload. A
	// dispatch.Spec has one seed for the universe and the probing alike,
	// so this workload cannot vary the probing alone and takes no input
	// from the benchmark seed (see surveySpec for why the universe stays
	// fixed).
	fleetWorldSeed = 1
	fleetRunners   = 2
	// fleetUnitSize is surveyd's default. With 1200 pairs it cuts the
	// survey into 19 units: fine enough that which runner claims the
	// last unit moves the makespan by a few percent, not a quarter.
	fleetUnitSize = dispatch.DefaultUnitSize
)

// fleetHTTP wraps the coordinator's handler: it is the only place the
// control plane can be observed from outside internal/dispatch. It
// times every request at the coordinator (server side: decode,
// validate, persist — not the runner's encode or the loopback transit)
// and keeps the response body of claims to count "wait" answers.
type fleetHTTP struct {
	next http.Handler
	tr   *tracer
	root int

	mu         sync.Mutex
	claimUS    []float64
	shipMS     []float64
	waits      int
	lastShipAt time.Time
}

type bodyRecorder struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (b *bodyRecorder) Write(p []byte) (int, error) {
	b.buf.Write(p)
	return b.ResponseWriter.Write(p)
}

func (f *fleetHTTP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &bodyRecorder{ResponseWriter: w}
	t0 := time.Now()
	f.next.ServeHTTP(rec, r)
	end := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	switch r.URL.Path {
	case "/v1/claim":
		f.tr.add("claim", f.root, -1, t0, end)
		f.claimUS = append(f.claimUS, float64(end.Sub(t0).Nanoseconds())/1e3)
		if bytes.Contains(rec.buf.Bytes(), []byte(`"status":"`+dispatch.StatusWait+`"`)) {
			f.waits++
		}
	case "/v1/ship":
		f.tr.add("ship", f.root, -1, t0, end)
		f.shipMS = append(f.shipMS, seconds(end.Sub(t0))*1e3)
		f.lastShipAt = end
	}
}

// fleetPass is one whole distributed survey.
type fleetPass struct {
	wall, merge time.Duration
	http        *fleetHTTP
	status      dispatch.Status
	jsonl, snap string
}

// runFleetPass starts an in-process coordinator on a loopback listener
// and fleetRunners runners against it, and returns once the merged
// outputs are written.
func runFleetPass(spec dispatch.Spec, dir string, tr *tracer) (*fleetPass, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	p := &fleetPass{jsonl: filepath.Join(dir, "fleet.jsonl"), snap: filepath.Join(dir, "fleet.atlas")}
	runtime.GC()
	t0 := time.Now()
	root := tr.begin("pass", -1, -1, t0)
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
		Spec: spec, Dir: filepath.Join(dir, "work"), OutJSONL: p.jsonl, AtlasPath: p.snap,
		AtlasOptions: atlas.Options{}, UnitSize: fleetUnitSize,
		LeaseTTL: 30 * time.Second, // far beyond a unit's trace time: no heartbeat fires
	})
	if err != nil {
		return nil, err
	}
	tr.add("plan", root, -1, t0, time.Now())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.http = &fleetHTTP{next: coord.Handler(), tr: tr, root: root}
	srv := &http.Server{Handler: p.http}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l) // returns on Close
	}()

	errs := make([]error, fleetRunners)
	var wg sync.WaitGroup
	for k := 0; k < fleetRunners; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = dispatch.RunRunner(dispatch.RunnerConfig{
				Coordinator: "http://" + l.Addr().String(),
				ID:          fmt.Sprintf("runner-%d", k),
				Workers:     1,
				Poll:        10 * time.Millisecond,
			})
		}(k)
	}
	<-coord.Done()
	end := time.Now()
	wg.Wait()
	_ = srv.Close()
	<-served

	p.wall = end.Sub(t0)
	p.http.mu.Lock()
	p.merge = end.Sub(p.http.lastShipAt)
	tr.add("merge", root, -1, p.http.lastShipAt, end)
	p.http.mu.Unlock()
	tr.finish(root, end)
	p.status = coord.Status()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return p, coord.Err()
}

// runFleetSurvey is the surveyd + `survey -join` path: the same tracing
// work as ip-survey at a smaller scale, plus the control plane — claim
// and ship over loopback HTTP, shard persistence, JSONL re-decode,
// intake replay and the merged save.
func runFleetSurvey(c *runCtx) error {
	pairs := c.pick(1200, 120)
	spec := dispatch.Spec{Level: "ip", Pairs: pairs, Seed: fleetWorldSeed}
	c.rep.Load = fmt.Sprintf("closed loop, %d runners x 1 trace worker, unit size %d", fleetRunners, fleetUnitSize)
	c.rep.Loopback = true
	c.rep.Sizes = map[string]int{"pairs": pairs, "runners": fleetRunners, "unit_size": fleetUnitSize, "world_seed": fleetWorldSeed}

	// Set-up: the single-machine run of the same spec, whose bytes the
	// fleet must reproduce.
	var setup, single []float64
	var ref *surveyPass
	var refU *survey.Universe
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		u, rc, err := experiments.PlanSurvey(spec.Level, experiments.SurveyConfig{Pairs: spec.Pairs, Seed: spec.Seed})
		if err != nil {
			return err
		}
		if ref, err = runSurveyPass(u, rc, fleetRunners, c.scratch, "", nil); err != nil {
			return err
		}
		refU = u
		setup = append(setup, seconds(time.Since(t0)))
		single = append(single, seconds(ref.wall))
	}
	jobs := ref.pairs()
	c.attempted(jobs, failedPairs(refU, ref, jobs))

	dir := filepath.Join(c.scratch, "fleet")
	pass := func(tr *tracer) (*fleetPass, error) {
		p, err := runFleetPass(spec, dir, tr)
		if err != nil {
			return nil, err
		}
		failed := 0
		js, jsBytes, err := fileSHA(p.jsonl)
		if err != nil {
			return nil, err
		}
		at, atBytes, err := fileSHA(p.snap)
		if err != nil {
			return nil, err
		}
		if js != ref.jsonlSHA || at != ref.snapSHA || jsBytes != ref.jsonlBytes || atBytes != ref.snapBytes {
			c.failf("fleet outputs differ from the single-machine run of the same spec")
			failed = jobs
		}
		if p.status.Records != jobs {
			c.failf("coordinator merged %d records, want %d", p.status.Records, jobs)
		}
		c.attempted(jobs, failed)
		return p, nil
	}
	if _, err := pass(nil); err != nil { // warm-up and correctness pass
		return err
	}

	if c.traced {
		var untraced, traced []float64
		var p *fleetPass
		deadline := time.Now().Add(c.seconds / 2)
		for rep := 0; rep < 1 || (rep < 5 && time.Now().Before(deadline)); rep++ {
			up, err := pass(nil)
			if err != nil {
				return err
			}
			untraced = append(untraced, seconds(up.wall))
			c.tr = newTracer()
			if p, err = pass(c.tr); err != nil {
				return err
			}
			traced = append(traced, seconds(p.wall))
		}
		c.put("dispatch.units", float64(p.status.Units))
		c.put("dispatch.claim_rtt_us", p.http.claimUS...)
		c.put("dispatch.ship_ms_per_unit", p.http.shipMS...)
		c.put("dispatch.merge_s", seconds(p.merge))
		c.put("dispatch.overhead_share", 1-ratio(median(single), median(untraced)))
		c.put("dispatch.lease_expiries", float64(p.status.ExpiredLeases))
		c.put("dispatch.wait_polls", float64(p.http.waits))
		c.put("trace.overhead_share", ratio(median(traced), median(untraced))-1)
		c.put("trace.spans", float64(len(c.tr.spans)))
		return nil
	}

	var rate []float64
	deadline := time.Now().Add(c.seconds)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		c.beginPass()
		p, err := pass(nil)
		if err != nil {
			return err
		}
		c.endPass()
		rate = append(rate, float64(jobs)/seconds(p.wall))
	}
	outBytes := float64(ref.jsonlBytes+ref.snapBytes) / float64(jobs)
	c.put("setup_s", setup...)
	c.put("ops_per_s", rate...)
	c.put("out_bytes_per_op", outBytes)
	c.put("pairs_per_s", rate...)
	c.put("probes_per_pair", float64(ref.res.TotalProbes)/float64(jobs))
	c.put("edge_recall", edgeRecall(refU, ref.res))
	c.put("out_bytes_per_pair", outBytes)
	return nil
}
