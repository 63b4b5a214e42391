package dispatch

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
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

// manifestName is the manifest file inside the coordinator work dir.
const manifestName = "manifest.json"

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
// manifest row (Shard is a file name within cfg.Dir, once shipped) plus
// the lease fields the manifest never stores.
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

	// jobPairs maps job list position to universe pair index, for
	// validating shipped records against their span.
	jobPairs []int

	// The unit rows are the one record of progress: Status derives every
	// count from them. lastSeen and expired hold the two facts the rows
	// cannot: when each runner last called, and how many leases expired.
	mu        sync.Mutex
	units     []*unit
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
	total := survey.JobCount(u, rc)
	if total == 0 {
		return nil, fmt.Errorf("dispatch: survey selects no jobs")
	}
	spec := cfg.Spec
	spec.OptionsHash = survey.Fingerprint(u, rc)
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg: cfg, spec: spec, ttl: cfg.LeaseTTL,
		jobPairs: survey.JobPairs(u, rc),
		logf:     cfg.Logf,
		lastSeen: make(map[string]time.Time),
		done:     make(chan struct{}),
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if spec.BudgetRate > 0 {
		burst := spec.BudgetBurst
		if burst == 0 {
			burst = spec.BudgetRate
		}
		c.budget = NewBudget(spec.BudgetRate, burst)
	}
	for start := 0; start < total; start += cfg.UnitSize {
		count := cfg.UnitSize
		if start+count > total {
			count = total - start
		}
		c.units = append(c.units, &unit{FleetUnit: traceio.FleetUnit{
			ID: len(c.units), Start: start, Count: count, State: traceio.UnitUnclaimed,
		}})
	}
	if cfg.Resume {
		if err := c.restore(); err != nil {
			return nil, err
		}
	}
	if err := c.persistManifest(); err != nil {
		return nil, err
	}
	// A resumed survey may already be fully shipped: merge immediately.
	if c.durable() == len(c.units) {
		c.merging = true
		go c.merge()
	}
	return c, nil
}

// restore loads the manifest and marks units whose shard files are
// durably on disk as shipped. Leased units demote to unclaimed: their
// leases died with the previous coordinator process.
func (c *Coordinator) restore() error {
	path := filepath.Join(c.cfg.Dir, manifestName)
	m, err := traceio.ReadFleetManifest(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := m.Matches(c.spec.OptionsHash, len(c.jobPairs), c.cfg.UnitSize); err != nil {
		return err
	}
	if len(m.Units) != len(c.units) {
		return fmt.Errorf("dispatch: manifest lists %d units, this plan shards into %d", len(m.Units), len(c.units))
	}
	restored, records := 0, 0
	for i, mu := range m.Units {
		u := c.units[i]
		if mu.Start != u.Start || mu.Count != u.Count {
			return fmt.Errorf("dispatch: manifest unit %d spans jobs [%d,%d), this plan cuts [%d,%d)",
				i, mu.Start, mu.Start+mu.Count, u.Start, u.Start+u.Count)
		}
		u.Attempts = mu.Attempts
		if mu.State != traceio.UnitShipped && mu.State != traceio.UnitMerged {
			continue
		}
		if fi, err := os.Stat(filepath.Join(c.cfg.Dir, mu.Shard)); err != nil || fi.Size() == 0 {
			c.logf("dispatch: unit %d was shipped but shard %s is gone; re-tracing", i, mu.Shard)
			continue
		}
		// Merged demotes to shipped: the merge re-runs over all shards
		// and rewrites its outputs atomically, so repeating it is safe
		// and simpler than proving the previous outputs complete.
		u.FleetUnit = mu
		u.State = traceio.UnitShipped
		restored++
		records += mu.Records
	}
	if restored > 0 {
		c.logf("dispatch: resumed %d shipped units (%d records) from %s", restored, records, path)
	}
	return nil
}

// durable counts the units whose shards are on disk: the shipped and
// merged rows. Callers hold c.mu.
func (c *Coordinator) durable() int {
	n := 0
	for _, u := range c.units {
		if u.State == traceio.UnitShipped || u.State == traceio.UnitMerged {
			n++
		}
	}
	return n
}

// persistManifest writes the manifest atomically. Callers must hold no
// lock or c.mu consistently; it reads unit state, so call it with c.mu
// held once the coordinator is serving.
func (c *Coordinator) persistManifest() error {
	m := &traceio.FleetManifest{
		OptionsHash: c.spec.OptionsHash, Seed: c.spec.Seed,
		Total: len(c.jobPairs), UnitSize: c.cfg.UnitSize,
	}
	for _, u := range c.units {
		m.Units = append(m.Units, u.FleetUnit)
	}
	return m.WriteAtomic(filepath.Join(c.cfg.Dir, manifestName))
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
	st := Status{Units: len(c.units), ExpiredLeases: c.expired}
	runners := make(map[string]*StatusRunner, len(c.lastSeen))
	for id, seen := range c.lastSeen {
		runners[id] = &StatusRunner{
			ID:       id,
			IdleMS:   now.Sub(seen).Milliseconds(),
			LastSeen: seen.UTC().Format(time.RFC3339),
		}
	}
	for _, u := range c.units {
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
	for _, u := range c.units {
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
		if c.durable() == len(c.units) {
			writeJSON(w, http.StatusOK, claimResponse{Status: StatusDone})
			return
		}
		for _, u := range c.units {
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
	if id < 0 || id >= len(c.units) {
		return nil
	}
	return c.units[id]
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

	// Validate the shipment against its span outside the lock: exactly
	// one record per job, in job order, each carrying the pair index the
	// span's position demands.
	n := 0
	verr := traceio.DecodeSurveyRecords(bytes.NewReader(body), func(sr *traceio.SurveyRecord) error {
		if n >= count {
			return fmt.Errorf("more than %d records", count)
		}
		if want := c.jobPairs[start+n]; sr.PairIndex != want {
			return fmt.Errorf("record %d is pair %d, span expects pair %d", n, sr.PairIndex, want)
		}
		n++
		return nil
	})
	if verr == nil && n != count {
		verr = fmt.Errorf("%d records, span holds %d jobs", n, count)
	}
	if verr != nil {
		writeErr(w, http.StatusBadRequest, "unit %d shipment invalid: %v", id, verr)
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
	shard := fmt.Sprintf("unit-%06d.jsonl", id)
	if err := traceio.WriteFileAtomic(filepath.Join(c.cfg.Dir, shard), body, 0o644); err != nil {
		writeErr(w, http.StatusInternalServerError, "persisting shard: %v", err)
		return
	}
	leased := *u
	u.State = traceio.UnitShipped
	u.Shard = shard
	u.Records = n
	u.leaseID = 0
	if err := c.persistManifest(); err != nil {
		// The shard is durable but the manifest is not; fail the ship so
		// the runner retries (the rewrite is idempotent). Restoring the
		// leased row undoes the ship; the lease is re-validated on retry.
		*u = leased
		writeErr(w, http.StatusInternalServerError, "persisting manifest: %v", err)
		return
	}
	durable := c.durable()
	c.logf("dispatch: unit %d shipped by %s (%d records); %d/%d units durable",
		id, runner, n, durable, len(c.units))
	writeJSON(w, http.StatusOK, shipResponse{Status: "ok", Records: n})
	if durable == len(c.units) && !c.merging {
		c.merging = true
		go c.merge()
	}
}

// merge folds every shipped shard, in unit (= span = pair) order, into
// the final outputs: the concatenated record log (byte-identical to a
// single-machine -out file) and the atlas snapshot written through the
// streaming canonical merge (byte-identical to a single-machine -atlas
// snapshot). It runs once, after the last ship.
func (c *Coordinator) merge() {
	err := c.doMerge()
	c.mu.Lock()
	c.err = err
	if err == nil {
		for _, u := range c.units {
			u.State = traceio.UnitMerged
		}
		err = c.persistManifest()
		if c.err == nil {
			c.err = err
		}
	}
	c.mu.Unlock()
	close(c.done)
}

func (c *Coordinator) doMerge() error {
	agg := survey.NewRecordAggregate()
	shards := make([]string, len(c.units))
	c.mu.Lock()
	for i, u := range c.units {
		shards[i] = filepath.Join(c.cfg.Dir, u.Shard)
	}
	c.mu.Unlock()

	// One decode per shard: its bytes concatenate into the record log in
	// span order while every record feeds the aggregate the summary
	// reports and, when a snapshot is wanted, the atlas.
	var a *atlas.Atlas
	if c.cfg.AtlasPath != "" {
		a = atlas.New(c.cfg.AtlasOptions)
	}
	fold := func(w io.Writer) error {
		for _, path := range shards {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			var src io.Reader = f
			if w != nil {
				src = io.TeeReader(f, w)
			}
			err = traceio.DecodeSurveyRecords(src, func(sr *traceio.SurveyRecord) error {
				if err := agg.Add(sr); err != nil {
					return err
				}
				if a != nil {
					return a.AddRecord(sr)
				}
				return nil
			})
			f.Close()
			if err != nil {
				return fmt.Errorf("merging %s: %w", path, err)
			}
		}
		return nil
	}
	var err error
	if c.cfg.OutJSONL != "" {
		err = traceio.WriteFileAtomicStream(c.cfg.OutJSONL, 0o644, fold)
	} else {
		err = fold(nil)
	}
	if err != nil {
		return err
	}
	c.logf("dispatch: merged %d records into %s", agg.Records, c.cfg.OutJSONL)

	// The atlas snapshot, through the streaming canonical encode.
	if a != nil {
		if err := a.Save(c.cfg.AtlasPath); err != nil {
			return err
		}
		c.logf("dispatch: atlas snapshot written to %s", c.cfg.AtlasPath)
	}
	c.mu.Lock()
	c.mergedAgg = agg
	c.mu.Unlock()
	return nil
}
