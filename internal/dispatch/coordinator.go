package dispatch

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mmlpt/internal/atlas"
	"mmlpt/internal/packet"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// DefaultUnitSize is the jobs-per-work-unit default: small enough that
// a runner death wastes little work, large enough that claim/ship HTTP
// round trips amortize over real tracing.
const DefaultUnitSize = 64

// DefaultLeaseTTL is the lease duration when CoordinatorConfig.LeaseTTL
// is zero. Runners heartbeat at a third of the TTL.
const DefaultLeaseTTL = 30 * time.Second

// CoordinatorConfig configures a survey coordinator.
type CoordinatorConfig struct {
	// Spec is the survey to run; OptionsHash is filled in by
	// NewCoordinator from the derived plan.
	Spec Spec
	// Dir is the coordinator work directory: per-unit shard files and
	// the manifest live here. Created if missing.
	Dir string
	// OutJSONL, when non-empty, is where the merged record log is
	// written after every unit ships — byte-identical to the -out file
	// of a single-machine run.
	OutJSONL string
	// AtlasPath, when non-empty, is where the merged atlas snapshot is
	// written — byte-identical to the -atlas snapshot of a
	// single-machine run.
	AtlasPath string
	// AtlasOptions tunes the atlas (shards, merge workers); output bytes
	// are identical for every value.
	AtlasOptions atlas.Options
	// UnitSize is the number of jobs per work unit (default
	// DefaultUnitSize).
	UnitSize int
	// LeaseTTL is how long a claim lives without renewal (default
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Resume restores shipped units from the manifest in Dir, so a
	// restarted coordinator re-traces only what never durably shipped.
	// A missing manifest degrades to a fresh survey.
	Resume bool
	// Logf, when non-nil, receives control-plane events (leases granted,
	// expiries, ships, merge progress).
	Logf func(format string, args ...any)
}

// unit is one work unit moving through the lease state machine: its
// manifest row (Shard is a file name within the work dir, once shipped)
// plus the lease fields the manifest never stores.
type unit struct {
	traceio.FleetUnit
	leaseID uint64
	expires time.Time
}

// Coordinator shards a survey into work units and serves the fleet
// protocol over HTTP. Create with NewCoordinator, mount Handler on a
// server, and wait on Done; Err and Summary report the outcome.
type Coordinator struct {
	cfg    CoordinatorConfig
	spec   Spec
	ttl    time.Duration
	budget *Budget
	logf   func(string, ...any)

	// The store's unit rows are the one record of progress: Status
	// derives every count from them. lastSeen and expired hold the two
	// facts the rows cannot: when each runner last called, and how many
	// leases expired.
	mu        sync.Mutex
	st        *store
	lastSeen  map[string]time.Time
	expired   int
	merging   bool
	mergedAgg *survey.RecordAggregate
	err       error
	nextLease uint64

	done chan struct{}
}

// NewCoordinator derives the survey plan, shards it into units,
// prepares the work directory (resuming from its manifest when asked),
// and persists the initial manifest.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.UnitSize <= 0 {
		cfg.UnitSize = DefaultUnitSize
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	u, rc, err := cfg.Spec.plan()
	if err != nil {
		return nil, err
	}
	if survey.JobCount(u, rc) == 0 {
		return nil, fmt.Errorf("dispatch: survey selects no jobs")
	}
	c := &Coordinator{
		cfg: cfg, spec: cfg.Spec, ttl: cfg.LeaseTTL,
		logf:     cfg.Logf,
		lastSeen: make(map[string]time.Time),
		done:     make(chan struct{}),
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if c.st, err = openStore(cfg.Dir, u, rc, cfg.UnitSize, cfg.Resume, c.logf); err != nil {
		return nil, err
	}
	c.spec.OptionsHash = c.st.hash
	if c.spec.BudgetRate > 0 {
		burst := c.spec.BudgetBurst
		if burst == 0 {
			burst = c.spec.BudgetRate
		}
		c.budget = NewBudget(c.spec.BudgetRate, burst)
	}
	// A resumed survey may already be fully shipped: merge immediately.
	if c.st.durable() == len(c.st.units) {
		c.merging = true
		go c.merge()
	}
	return c, nil
}

// Done is closed once the final merge has finished (successfully or
// not); Err then reports the outcome.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err reports the merge outcome after Done is closed.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Summary renders the merged record aggregate (available after Done).
func (c *Coordinator) Summary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mergedAgg == nil {
		return ""
	}
	return c.mergedAgg.Summary()
}

// Status reports unit and runner state for /v1/status and the progress
// line, derived from the unit rows. A runner's row lists every runner
// this process has heard from; its Units and Records are the shipped or
// merged rows naming it, restored ones included.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := Status{Units: len(c.st.units), ExpiredLeases: c.expired}
	runners := make(map[string]*StatusRunner, len(c.lastSeen))
	for id, seen := range c.lastSeen {
		runners[id] = &StatusRunner{
			ID:       id,
			IdleMS:   now.Sub(seen).Milliseconds(),
			LastSeen: seen.UTC().Format(time.RFC3339),
		}
	}
	for _, u := range c.st.units {
		switch u.State {
		case traceio.UnitUnclaimed:
			st.Unclaimed++
			continue
		case traceio.UnitLeased:
			st.Leased++
			continue
		case traceio.UnitShipped:
			st.Shipped++
		case traceio.UnitMerged:
			st.Merged++
		}
		st.Records += u.Records
		if r := runners[u.Runner]; r != nil {
			r.Units++
			r.Records += u.Records
		}
	}
	for _, r := range runners {
		st.Runners = append(st.Runners, *r)
	}
	slices.SortFunc(st.Runners, func(a, b StatusRunner) int { return strings.Compare(a.ID, b.ID) })
	select {
	case <-c.done:
		st.Done = c.err == nil
	default:
	}
	return st
}

// expireLeases returns expired leased units to the unclaimed pool.
// Callers hold c.mu.
func (c *Coordinator) expireLeases(now time.Time) {
	for _, u := range c.st.units {
		if u.State == traceio.UnitLeased && now.After(u.expires) {
			c.logf("dispatch: lease %d on unit %d (runner %s) expired; unit back to unclaimed", u.leaseID, u.ID, u.Runner)
			u.State = traceio.UnitUnclaimed
			u.Runner = ""
			u.leaseID = 0
			c.expired++
		}
	}
}

// tick reads the clock once for a lock section: it expires overdue
// leases, stamps runner as seen, and returns the time it read. Callers
// hold c.mu.
func (c *Coordinator) tick(runner string) time.Time {
	now := time.Now()
	c.expireLeases(now)
	c.lastSeen[runner] = now
	return now
}

// Handler routes the fleet protocol. All state transitions happen in
// these handlers under one mutex; lease expiry is evaluated lazily at
// the top of each mutating call, so no background timer is needed.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()

	method := func(m string, h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != m {
				writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
				return
			}
			h(w, r)
		}
	}

	mux.HandleFunc("/healthz", method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))

	mux.HandleFunc("/v1/status", method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	}))

	mux.HandleFunc("/v1/claim", method(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		var req claimRequest
		if err := decodeJSON(r, &req); err != nil || req.Runner == "" {
			writeErr(w, http.StatusBadRequest, "claim needs a runner id")
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		now := c.tick(req.Runner)
		if c.st.durable() == len(c.st.units) {
			writeJSON(w, http.StatusOK, claimResponse{Status: StatusDone})
			return
		}
		for _, u := range c.st.units {
			if u.State != traceio.UnitUnclaimed {
				continue
			}
			c.nextLease++
			u.State = traceio.UnitLeased
			u.Runner = req.Runner
			u.leaseID = c.nextLease
			u.expires = now.Add(c.ttl)
			u.Attempts++
			c.logf("dispatch: unit %d [%d,%d) leased to %s (lease %d, attempt %d)",
				u.ID, u.Start, u.Start+u.Count, req.Runner, u.leaseID, u.Attempts)
			spec := c.spec
			writeJSON(w, http.StatusOK, claimResponse{
				Status:  StatusUnit,
				Unit:    &UnitInfo{ID: u.ID, Start: u.Start, Count: u.Count},
				LeaseID: u.leaseID, TTLMillis: c.ttl.Milliseconds(),
				Spec: &spec,
			})
			return
		}
		writeJSON(w, http.StatusOK, claimResponse{Status: StatusWait})
	}))

	mux.HandleFunc("/v1/renew", method(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		var req renewRequest
		if err := decodeJSON(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, "malformed renew request")
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		now := c.tick(req.Runner)
		u := c.unitByID(req.Unit)
		if u == nil || u.State != traceio.UnitLeased || u.leaseID != req.LeaseID || u.Runner != req.Runner {
			writeErr(w, http.StatusGone, "lease %d on unit %d is no longer held", req.LeaseID, req.Unit)
			return
		}
		u.expires = now.Add(c.ttl)
		writeJSON(w, http.StatusOK, renewResponse{TTLMillis: c.ttl.Milliseconds()})
	}))

	mux.HandleFunc("/v1/budget", method(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		var req budgetRequest
		if err := decodeJSON(r, &req); err != nil || req.Want <= 0 {
			writeErr(w, http.StatusBadRequest, "malformed budget request")
			return
		}
		if c.budget == nil {
			writeJSON(w, http.StatusOK, budgetResponse{Granted: req.Want})
			return
		}
		prefix, err := packet.ParseAddr(req.Prefix)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad prefix: %v", err)
			return
		}
		granted, wait := c.budget.Take(Prefix24(prefix), req.Want)
		c.mu.Lock()
		c.lastSeen[req.Runner] = time.Now()
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, budgetResponse{Granted: granted, WaitMillis: wait.Milliseconds()})
	}))

	mux.HandleFunc("/v1/ship", method(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		c.handleShip(w, r)
	}))

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "no such route")
	})

	return mux
}

func (c *Coordinator) unitByID(id int) *unit {
	if id < 0 || id >= len(c.st.units) {
		return nil
	}
	return c.st.units[id]
}

// maxShipRecordBytes is the per-record ceiling on a shipment: a unit's
// body may not exceed it times the unit's job count, so a confused or
// hostile runner cannot make the coordinator buffer an unbounded body.
// The widest record of the router-survey benchmark universe (14 pairs,
// world seed 3) is 5 527 bytes and the widest seen in any universe
// measured (150 router pairs; 1 200 ip pairs) is 20 917, so 256 KiB is
// 47 times the first and 12 times the second.
const maxShipRecordBytes = 256 << 10

func (c *Coordinator) handleShip(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id, err1 := strconv.Atoi(q.Get("unit"))
	leaseID, err2 := strconv.ParseUint(q.Get("lease"), 10, 64)
	runner := q.Get("runner")
	if err1 != nil || err2 != nil || runner == "" {
		writeErr(w, http.StatusBadRequest, "ship needs unit, lease and runner query parameters")
		return
	}
	// Reject stale leases before touching the body: a late shipment from
	// a presumed-dead runner gets its 410 without any validation work.
	c.mu.Lock()
	c.tick(runner)
	u := c.unitByID(id)
	if u == nil {
		c.mu.Unlock()
		writeErr(w, http.StatusBadRequest, "no unit %d", id)
		return
	}
	if u.State != traceio.UnitLeased || u.leaseID != leaseID || u.Runner != runner {
		c.mu.Unlock()
		writeErr(w, http.StatusGone, "lease %d on unit %d is no longer held", leaseID, id)
		return
	}
	start, count := u.Start, u.Count
	c.mu.Unlock()

	limit := int64(count) * maxShipRecordBytes
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// The lease is untouched: its holder can still ship the real
			// payload.
			writeErr(w, http.StatusRequestEntityTooLarge, "unit %d shipment exceeds %d bytes (%d jobs x %d)",
				id, limit, count, maxShipRecordBytes)
			return
		}
		writeErr(w, http.StatusBadRequest, "reading shipment: %v", err)
		return
	}

	// Check the shipment against its span outside the lock.
	if err := c.st.checkShard(start, count, bytes.NewReader(body)); err != nil {
		writeErr(w, http.StatusBadRequest, "unit %d shipment invalid: %v", id, err)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick(runner)
	if u.State != traceio.UnitLeased || u.leaseID != leaseID || u.Runner != runner {
		// The lease expired (and was possibly reassigned) or the unit
		// already shipped. Only the current leaseholder's bytes are
		// accepted — ownership stays unambiguous, and determinism makes
		// the re-trace produce identical bytes anyway.
		writeErr(w, http.StatusGone, "lease %d on unit %d is no longer held", leaseID, id)
		return
	}
	if err := c.st.storeShard(u, body); err != nil {
		// A failed store leaves the leased row as it was, so the runner's
		// retry ships again (the rewrite is idempotent) under a lease
		// re-validated then.
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	durable := c.st.durable()
	c.logf("dispatch: unit %d shipped by %s (%d records); %d/%d units durable",
		id, runner, count, durable, len(c.st.units))
	writeJSON(w, http.StatusOK, shipResponse{Status: "ok", Records: count})
	if durable == len(c.st.units) && !c.merging {
		c.merging = true
		go c.merge()
	}
}

// merge folds every shipped shard into the final outputs (store.merge)
// and marks every unit merged. It runs once, after the last ship.
func (c *Coordinator) merge() {
	agg, err := c.st.merge(c.cfg.OutJSONL, c.cfg.AtlasPath, c.cfg.AtlasOptions)
	if err == nil {
		c.logf("dispatch: merged %d records into %s", agg.Records, c.cfg.OutJSONL)
		if c.cfg.AtlasPath != "" {
			c.logf("dispatch: atlas snapshot written to %s", c.cfg.AtlasPath)
		}
	}
	c.mu.Lock()
	c.mergedAgg = agg
	if err == nil {
		err = c.st.markMerged()
	}
	c.err = err
	c.mu.Unlock()
	close(c.done)
}
