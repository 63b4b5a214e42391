// Package dispatch is the distributed survey control plane: a
// coordinator that shards a survey's deterministic job list into
// contiguous work units and hands them to runner processes over HTTP,
// with lease-based claims, per-unit record shipping, retry on runner
// death, and a fleet-wide probe-rate budget per destination prefix.
//
// In the layering, dispatch sits above internal/survey (each claimed
// unit is a span-scoped survey.Run), internal/experiments (coordinator
// and runners derive the identical survey plan from one Spec via
// PlanSurvey), internal/traceio (shard files and the manifest persist
// through its atomic-write primitives) and internal/atlas (shipped
// shards fold into one atlas whose snapshot is written through the
// streaming canonical merge). cmd/surveyd hosts the Coordinator;
// cmd/survey -join hosts the Runner, and cmd/survey -checkpoint calls
// RunLocal, which keeps a single-machine survey's progress in the same
// manifest and shards a coordinator keeps.
//
// The correctness contract is byte determinism: because the job list,
// per-pair seeds and record encoding are deterministic, every work unit
// produces the same record bytes no matter which runner traces it, or
// how many times it is retried after a lease expires. Units concatenate
// in span order into the exact JSONL stream a single-machine run
// writes, and the atlas's canonical merge makes the snapshot
// independent of shard arrival order — so a fleet of N runners, with
// arbitrary claim interleavings and mid-survey crashes, yields outputs
// byte-identical to `cmd/survey` on one machine.
//
// Work units move through a lease state machine:
//
//	unclaimed ──claim──▶ leased ──ship──▶ shipped ──merge──▶ merged
//	    ▲                  │
//	    └──── TTL expiry ──┘
//
// A lease is held by renewal heartbeats; a runner that dies (or stalls
// past the TTL) loses the lease and the unit returns to unclaimed for
// reassignment. Ships are accepted only from the current leaseholder,
// so a late shipment from a presumed-dead runner cannot race the
// reassigned unit — the bytes would be identical either way, but
// ownership stays unambiguous.
package dispatch

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"

	"mmlpt/internal/experiments"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/survey"
)

// Spec is the survey specification a coordinator publishes to its
// runners inside every claim: everything a runner needs to derive the
// identical survey plan (universe, job list, run configuration) the
// coordinator sharded.
type Spec struct {
	// Level is the survey level, "ip" or "router".
	Level string `json:"level"`
	// Pairs, Seed, Phi, Rounds parameterize the survey exactly as the
	// cmd/survey flags of the same names do.
	Pairs  int    `json:"pairs"`
	Seed   uint64 `json:"seed"`
	Phi    int    `json:"phi,omitempty"`
	Rounds int    `json:"rounds,omitempty"`
	// OptionsHash is survey.Fingerprint of the derived plan. Runners
	// recompute it from their own binary's PlanSurvey and refuse a
	// mismatch: a coordinator and runner built from diverged trees would
	// otherwise silently splice two experiments' records together.
	OptionsHash uint64 `json:"options_hash"`
	// BudgetRate is the fleet-wide probe ceiling per destination /24
	// prefix, in probes per second (0 = unmetered); BudgetBurst is the
	// token-bucket depth. Runners acquire probe tokens from the
	// coordinator before sending, so N runners collectively never exceed
	// the cadence one machine would have kept toward any network.
	BudgetRate  float64 `json:"budget_rate,omitempty"`
	BudgetBurst float64 `json:"budget_burst,omitempty"`
}

// SpecFlags declares the survey-spec flags -level, -pairs, -seed, -phi
// and -rounds on fs: the one declaration cmd/survey and cmd/surveyd
// share, so a fleet's spec and a single-machine run cannot drift. The
// returned function, called once fs is parsed, yields the spec or the
// usage error for a value that would silently change what is measured:
// an unknown level, a negative -pairs or -rounds (0 keeps meaning the
// level's default), or a -phi other than 0 (the default) below
// mda.DefaultPhi.
func SpecFlags(fs *flag.FlagSet) func() (Spec, error) {
	var s Spec
	fs.StringVar(&s.Level, "level", "ip", "survey level: ip or router")
	fs.IntVar(&s.Pairs, "pairs", 1000, "number of source-destination pairs (0 = the level's default)")
	fs.Uint64Var(&s.Seed, "seed", 1, "random seed")
	fs.IntVar(&s.Phi, "phi", mda.DefaultPhi, fmt.Sprintf("MDA-Lite meshing budget, at least %d (0 = default)", mda.DefaultPhi))
	fs.IntVar(&s.Rounds, "rounds", 10, "alias rounds, router level (0 = default)")
	return func() (Spec, error) {
		switch {
		case s.Level != "ip" && s.Level != "router":
			return s, fmt.Errorf("unknown level %q (ip or router)", s.Level)
		case s.Pairs < 0:
			return s, fmt.Errorf("-pairs %d: want 0 (the level's default) or more", s.Pairs)
		case s.Rounds < 0:
			return s, fmt.Errorf("-rounds %d: want 0 (the default) or more", s.Rounds)
		case s.Phi != 0 && s.Phi < mda.DefaultPhi:
			return s, fmt.Errorf("-phi %d: want 0 (the default) or at least %d", s.Phi, mda.DefaultPhi)
		}
		return s, nil
	}
}

// plan derives the survey plan for the spec.
func (s Spec) plan() (*survey.Universe, survey.RunConfig, error) {
	return experiments.PlanSurvey(s.Level, experiments.SurveyConfig{
		Pairs: s.Pairs, Seed: s.Seed, Phi: s.Phi, Rounds: s.Rounds,
	})
}

// Prefix24 maps a destination address to its /24 budget prefix, the
// granularity the fleet probe budget is accounted at.
func Prefix24(a packet.Addr) packet.Addr { return a &^ 0xff }

// UnitInfo describes one work unit inside the claim/renew/ship
// protocol: jobs [Start, Start+Count) of the survey's job list.
type UnitInfo struct {
	ID    int `json:"id"`
	Start int `json:"start"`
	Count int `json:"count"`
}

// Claim statuses.
const (
	// StatusUnit: the response carries a leased work unit.
	StatusUnit = "unit"
	// StatusWait: every unit is leased or shipped but the survey is not
	// finished; poll again shortly (a lease may yet expire).
	StatusWait = "wait"
	// StatusDone: every unit has shipped; the runner should exit.
	StatusDone = "done"
)

type claimRequest struct {
	Runner string `json:"runner"`
}

type claimResponse struct {
	Status  string    `json:"status"`
	Unit    *UnitInfo `json:"unit,omitempty"`
	LeaseID uint64    `json:"lease_id,omitempty"`
	// TTLMillis is the lease duration; the runner must renew well within
	// it (it heartbeats at a third of the TTL).
	TTLMillis int64 `json:"ttl_ms,omitempty"`
	Spec      *Spec `json:"spec,omitempty"`
}

type renewRequest struct {
	Runner  string `json:"runner"`
	Unit    int    `json:"unit"`
	LeaseID uint64 `json:"lease_id"`
}

type renewResponse struct {
	TTLMillis int64 `json:"ttl_ms"`
}

type budgetRequest struct {
	Runner string `json:"runner"`
	// Prefix is the dotted-quad /24 prefix the probes target.
	Prefix string `json:"prefix"`
	Want   int    `json:"want"`
}

type budgetResponse struct {
	Granted int `json:"granted"`
	// WaitMillis hints how long to sleep before asking again when
	// Granted is zero (or short).
	WaitMillis int64 `json:"wait_ms,omitempty"`
}

type shipResponse struct {
	Status  string `json:"status"`
	Records int    `json:"records,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// StatusRunner is one runner's row of a status report.
type StatusRunner struct {
	ID       string `json:"id"`
	Units    int    `json:"units"`
	Records  int    `json:"records"`
	IdleMS   int64  `json:"idle_ms"`
	LastSeen string `json:"last_seen"`
}

// Status is the coordinator's /v1/status report.
type Status struct {
	Units         int            `json:"units"`
	Unclaimed     int            `json:"unclaimed"`
	Leased        int            `json:"leased"`
	Shipped       int            `json:"shipped"`
	Merged        int            `json:"merged"`
	Records       int            `json:"records"`
	ExpiredLeases int            `json:"expired_leases"`
	Done          bool           `json:"done"`
	Runners       []StatusRunner `json:"runners,omitempty"`
}

// String renders the one-line progress report surveyd prints: units
// shipped (merged ones included) out of all units, the leased and merged
// counts, records, runners seen and, when any, leases expired.
func (s Status) String() string {
	line := fmt.Sprintf("%d/%d units shipped (%d leased, %d merged), %d records, %d runners",
		s.Shipped+s.Merged, s.Units, s.Leased, s.Merged, s.Records, len(s.Runners))
	if s.ExpiredLeases > 0 {
		line += fmt.Sprintf(", %d leases expired", s.ExpiredLeases)
	}
	return line
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON reads a small JSON request body.
func decodeJSON(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
