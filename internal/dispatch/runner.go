package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmlpt/internal/httpx"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// RunnerConfig configures one fleet runner.
type RunnerConfig struct {
	// Coordinator is the coordinator base URL, e.g. http://10.0.0.1:8460.
	Coordinator string
	// ID names this runner in leases and status reports. Required.
	ID string
	// Workers is the tracing concurrency within a claimed unit (0 =
	// GOMAXPROCS). Output bytes are identical for every value.
	Workers int
	// Poll is how long to sleep when the coordinator says "wait"
	// (default 500ms).
	Poll time.Duration
	// MaxUnits, when positive, exits after that many units ship — used
	// by tests and for drain-and-replace rollouts.
	MaxUnits int
	// Logf, when non-nil, receives runner events.
	Logf func(format string, args ...any)

	// sleep waits out the budget's wait hints (default time.Sleep); a
	// test drives it from the same virtual clock as the budget.
	sleep func(time.Duration)
}

// errLeaseLost marks a unit whose lease expired under us (coordinator
// reassigned it); the runner abandons the unit and claims the next.
var errLeaseLost = errors.New("dispatch: lease lost")

// bufSink collects a unit's records in memory using the same per-record
// encoder as the JSONL file sink, so shipped bytes equal what a
// single-machine -out file would hold for the span.
type bufSink struct{ buf *bytes.Buffer }

func (s bufSink) Emit(rec *traceio.SurveyRecord) error { return rec.WriteJSONL(s.buf) }
func (s bufSink) Close() error                         { return nil }

// runner is the client side of the fleet protocol.
type runner struct {
	cfg    RunnerConfig
	base   string
	client *http.Client
	logf   func(string, ...any)

	// Plan state, built from the first claim's Spec and reused: the plan
	// is a pure function of the Spec, so it never changes mid-survey.
	spec *Spec
	uni  *survey.Universe
	rc   survey.RunConfig

	budget *budgetClient
}

// RunRunner joins the coordinator's fleet and traces work units until
// the survey is done (or MaxUnits ship). It returns nil on a clean
// "done" from the coordinator and an error when the coordinator becomes
// unreachable or publishes an incompatible survey plan.
func RunRunner(cfg RunnerConfig) error {
	if cfg.ID == "" {
		return fmt.Errorf("dispatch: runner needs an id")
	}
	if cfg.Coordinator == "" {
		return fmt.Errorf("dispatch: runner needs a coordinator URL")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	r := &runner{
		cfg:    cfg,
		base:   strings.TrimRight(cfg.Coordinator, "/"),
		client: &http.Client{Timeout: 60 * time.Second},
		logf:   cfg.Logf,
	}
	if r.logf == nil {
		r.logf = func(string, ...any) {}
	}
	shipped := 0
	for {
		var resp claimResponse
		if err := httpx.Retry(5, func(int) bool { return true }, func() error {
			return r.postJSON("/v1/claim", claimRequest{Runner: cfg.ID}, &resp)
		}); err != nil {
			return fmt.Errorf("dispatch: claiming work: %w", err)
		}
		switch resp.Status {
		case StatusDone:
			r.logf("runner %s: survey done after %d units", cfg.ID, shipped)
			return nil
		case StatusWait:
			time.Sleep(cfg.Poll)
			continue
		case StatusUnit:
			// fall through
		default:
			return fmt.Errorf("dispatch: unknown claim status %q", resp.Status)
		}
		if resp.Unit == nil || resp.Spec == nil {
			return fmt.Errorf("dispatch: claim response missing unit or spec")
		}
		if err := r.adoptSpec(resp.Spec); err != nil {
			return err
		}
		err := r.traceUnit(*resp.Unit, resp.LeaseID, time.Duration(resp.TTLMillis)*time.Millisecond)
		if errors.Is(err, errLeaseLost) {
			r.logf("runner %s: lost lease on unit %d; moving on", cfg.ID, resp.Unit.ID)
			continue
		}
		if err != nil {
			return err
		}
		shipped++
		if cfg.MaxUnits > 0 && shipped >= cfg.MaxUnits {
			r.logf("runner %s: reached max units (%d); exiting", cfg.ID, cfg.MaxUnits)
			return nil
		}
	}
}

// adoptSpec derives the survey plan from the coordinator's Spec on the
// first claim and pins it. The fingerprint check catches a coordinator
// and runner built from diverged trees before any probe is sent —
// splicing two plans' records together would corrupt the survey
// silently.
func (r *runner) adoptSpec(spec *Spec) error {
	if r.spec != nil {
		if r.spec.OptionsHash != spec.OptionsHash {
			return fmt.Errorf("dispatch: coordinator changed spec mid-survey (hash %x -> %x)", r.spec.OptionsHash, spec.OptionsHash)
		}
		return nil
	}
	u, rc, err := spec.plan()
	if err != nil {
		return fmt.Errorf("dispatch: deriving plan: %w", err)
	}
	if got := survey.Fingerprint(u, rc); got != spec.OptionsHash {
		return fmt.Errorf("dispatch: plan fingerprint mismatch: coordinator %x, this binary %x — diverged builds?", spec.OptionsHash, got)
	}
	r.spec = spec
	r.uni = u
	r.rc = rc
	if spec.BudgetRate > 0 {
		r.budget = &budgetClient{r: r, avail: make(map[packet.Addr]int)}
	}
	r.logf("runner %s: adopted survey plan %x (%d jobs, level %s)",
		r.cfg.ID, spec.OptionsHash, survey.JobCount(u, rc), spec.Level)
	return nil
}

// traceUnit traces one claimed span, heartbeating the lease throughout,
// then ships the records. The unit's records are buffered in memory:
// units are small by design so a retry re-traces cheaply.
func (r *runner) traceUnit(u UnitInfo, leaseID uint64, ttl time.Duration) error {
	var lost atomic.Bool
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		interval := ttl / 3
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				err := r.postJSON("/v1/renew", renewRequest{Runner: r.cfg.ID, Unit: u.ID, LeaseID: leaseID}, nil)
				var se *httpx.StatusError
				if errors.As(err, &se) && se.Code == http.StatusGone {
					lost.Store(true)
					return
				}
				// Transient failures ride: the lease survives until the
				// TTL, which spans several heartbeats.
			}
		}
	}()

	var buf bytes.Buffer
	rc := r.rc
	rc.Workers = r.cfg.Workers
	rc.SpanStart = u.Start
	rc.SpanCount = u.Count
	rc.Sinks = []survey.Sink{bufSink{&buf}}
	if r.budget != nil {
		rc.WrapProber = func(pair survey.Pair, p probe.Prober) probe.Prober {
			return &meteredProber{Prober: p, prefix: Prefix24(pair.Dst), budget: r.budget}
		}
	}
	_, err := survey.Run(r.uni, rc)
	close(stop)
	hb.Wait()
	if err != nil {
		return fmt.Errorf("dispatch: tracing unit %d: %w", u.ID, err)
	}
	if lost.Load() {
		return errLeaseLost
	}
	return r.ship(u, leaseID, buf.Bytes())
}

// ship POSTs the unit's record bytes. A 410 means the lease expired
// while (or just before) shipping — the unit was reassigned and the
// re-trace will produce identical bytes, so the runner just moves on.
func (r *runner) ship(u UnitInfo, leaseID uint64, body []byte) error {
	path := fmt.Sprintf("/v1/ship?unit=%d&lease=%d&runner=%s", u.ID, leaseID, url.QueryEscape(r.cfg.ID))
	err := httpx.Retry(4, func(code int) bool {
		// A lost lease and a refused payload will not improve with
		// retries; a failed store might.
		return code == http.StatusGone || code == http.StatusBadRequest || code == http.StatusRequestEntityTooLarge
	}, func() error { return r.post(path, "application/x-ndjson", body, nil) })
	var se *httpx.StatusError
	if errors.As(err, &se) && se.Code == http.StatusGone {
		return errLeaseLost
	}
	if err != nil {
		return fmt.Errorf("dispatch: shipping unit %d: %w", u.ID, err)
	}
	r.logf("runner %s: shipped unit %d (%d bytes)", r.cfg.ID, u.ID, len(body))
	return nil
}

// postJSON POSTs req as JSON; see post. The request types hold only
// strings and numbers, so marshalling cannot fail.
func (r *runner) postJSON(path string, req, out any) error {
	body, _ := json.Marshal(req)
	return r.post(path, "application/json", body, out)
}

// post POSTs body to the coordinator and decodes a 200 response into
// out; any other response comes back as *httpx.StatusError.
func (r *runner) post(path, contentType string, body []byte, out any) error {
	resp, err := r.client.Post(r.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	return httpx.ReadResponse(resp, out)
}

// budgetChunk is the minimum token request: claiming tokens in chunks
// keeps the budget endpoint off the per-probe hot path.
const budgetChunk = 64

// budgetErrLimit is how many consecutive budget-endpoint failures a
// runner tolerates before proceeding unmetered: if the coordinator is
// gone the traced unit is unshippable anyway, and stalling probes
// forever would just hide that.
const budgetErrLimit = 20

// budgetClient acquires probe tokens from the coordinator, caching
// whole grants per prefix so one HTTP round trip covers many probes.
type budgetClient struct {
	r  *runner
	mu sync.Mutex
	// avail holds granted-but-unspent tokens per /24 prefix.
	avail map[packet.Addr]int
}

// acquire blocks until n tokens for the prefix are held, sleeping per
// the coordinator's wait hints. Metering shapes only timing: once
// acquire returns, the probes proceed exactly as they would unmetered.
func (b *budgetClient) acquire(prefix packet.Addr, n int) {
	failures := 0
	for n > 0 {
		b.mu.Lock()
		if a := b.avail[prefix]; a > 0 {
			take := a
			if take > n {
				take = n
			}
			b.avail[prefix] = a - take
			n -= take
			b.mu.Unlock()
			continue
		}
		b.mu.Unlock()
		want := n
		if want < budgetChunk {
			want = budgetChunk
		}
		var resp budgetResponse
		err := b.r.postJSON("/v1/budget", budgetRequest{
			Runner: b.r.cfg.ID, Prefix: prefix.String(), Want: want,
		}, &resp)
		if err != nil {
			failures++
			if failures >= budgetErrLimit {
				b.r.logf("runner %s: budget endpoint unreachable (%v); proceeding unmetered", b.r.cfg.ID, err)
				return
			}
			b.r.cfg.sleep(200 * time.Millisecond)
			continue
		}
		failures = 0
		if resp.Granted > 0 {
			b.mu.Lock()
			b.avail[prefix] += resp.Granted
			b.mu.Unlock()
			continue
		}
		wait := time.Duration(resp.WaitMillis) * time.Millisecond
		if wait <= 0 {
			wait = 5 * time.Millisecond
		}
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		b.r.cfg.sleep(wait)
	}
}

// meteredProber charges every probe against the fleet budget before
// forwarding it. Trace probes (Probe/ProbeBatch) target the pair's
// destination and charge its /24; echo probes target arbitrary
// addresses (alias resolution) and charge each target's own /24.
// Metering counts requested probes; per-probe retries inside the
// prober ride the same grant — a deliberate approximation that keeps
// the budget check off the retry path.
type meteredProber struct {
	probe.Prober
	prefix packet.Addr
	budget *budgetClient
}

func (m *meteredProber) Probe(flowID uint16, ttl int) *packet.Reply {
	m.budget.acquire(m.prefix, 1)
	return m.Prober.Probe(flowID, ttl)
}

func (m *meteredProber) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	if len(specs) > 0 {
		m.budget.acquire(m.prefix, len(specs))
	}
	return m.Prober.ProbeBatch(specs)
}

func (m *meteredProber) Echo(addr packet.Addr, seq uint16) *packet.Reply {
	m.budget.acquire(Prefix24(addr), 1)
	return m.Prober.Echo(addr, seq)
}

// EchoBatch charges each /24 the batch touches once, for all its probes,
// in order of the prefix's first probe: the budget requests a batch makes
// are the same, in the same order, on every run.
func (m *meteredProber) EchoBatch(specs []probe.EchoSpec) []*packet.Reply {
	type charge struct {
		prefix packet.Addr
		n      int
	}
	var charges []charge
	for _, sp := range specs {
		prefix := Prefix24(sp.Addr)
		i := slices.IndexFunc(charges, func(c charge) bool { return c.prefix == prefix })
		if i < 0 {
			i = len(charges)
			charges = append(charges, charge{prefix: prefix})
		}
		charges[i].n++
	}
	for _, c := range charges {
		m.budget.acquire(c.prefix, c.n)
	}
	return m.Prober.EchoBatch(specs)
}
