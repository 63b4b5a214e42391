package dispatch

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmlpt/internal/atlas"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// testSpec is a survey small enough to fleet-trace in test time but
// large enough to cut into several work units.
func testSpec() Spec {
	return Spec{Level: "ip", Pairs: 24, Seed: 7, Phi: 2}
}

// TestSpecFlags: the shared spec flags take 0 as "default" and the
// boundary values, and refuse anything that would change what is
// measured without saying so.
func TestSpecFlags(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		args []string
		want Spec
		err  string
	}{
		{nil, Spec{Level: "ip", Pairs: 1000, Seed: 1, Phi: 2, Rounds: 10}, ""},
		{[]string{"-level", "router", "-pairs", "0", "-rounds", "0", "-phi", "0", "-seed", "9"},
			Spec{Level: "router", Seed: 9}, ""},
		{[]string{"-phi", "4", "-rounds", "1"}, Spec{Level: "ip", Pairs: 1000, Seed: 1, Phi: 4, Rounds: 1}, ""},
		{[]string{"-level", "as"}, Spec{}, `unknown level "as"`},
		{[]string{"-pairs", "-1"}, Spec{}, "-pairs -1"},
		{[]string{"-rounds", "-1"}, Spec{}, "-rounds -1"},
		{[]string{"-phi", "1"}, Spec{}, "-phi 1"},
		{[]string{"-phi", "-2"}, Spec{}, "-phi -2"},
	} {
		fs := flag.NewFlagSet("spec", flag.ContinueOnError)
		specOf := SpecFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		got, err := specOf()
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%q: %v", c.args, err)
		case c.err == "" && got != c.want:
			t.Errorf("%q: spec %+v, want %+v", c.args, got, c.want)
		case c.err != "" && (err == nil || !strings.HasPrefix(err.Error(), c.err)):
			t.Errorf("%q: error %v, want one starting %q", c.args, err, c.err)
		}
	}
}

// singleMachine runs the spec's survey in-process the way cmd/survey
// would, returning the record-log bytes and (when atlasPath is
// non-empty) writing the atlas snapshot.
func singleMachine(t *testing.T, spec Spec, atlasPath string, mods ...func(*survey.RunConfig)) []byte {
	t.Helper()
	u, rc, err := spec.plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range mods {
		mod(&rc)
	}
	var buf bytes.Buffer
	rc.Sinks = []survey.Sink{bufSink{&buf}}
	var asink *survey.AtlasSink
	if atlasPath != "" {
		asink = survey.NewAtlasSink(atlas.Options{})
		rc.Sinks = append(rc.Sinks, asink)
	}
	if _, err := survey.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	if asink != nil {
		if err := asink.Close(); err != nil {
			t.Fatal(err)
		}
		if err := asink.Atlas.Save(atlasPath); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestCoordinator(t *testing.T, dir string, spec Spec, mod func(*CoordinatorConfig)) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := CoordinatorConfig{
		Spec:      spec,
		Dir:       dir,
		OutJSONL:  filepath.Join(dir, "merged.jsonl"),
		AtlasPath: filepath.Join(dir, "merged.atlas"),
		UnitSize:  5,
		LeaseTTL:  2 * time.Second,
		Logf:      t.Logf,
	}
	if mod != nil {
		mod(&cfg)
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return coord, srv
}

// runRunners starts n runners against the coordinator, each configured
// further by mods, and waits for all of them to exit cleanly.
func runRunners(t *testing.T, url string, n int, mods ...func(*RunnerConfig)) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := RunnerConfig{
				Coordinator: url,
				ID:          fmt.Sprintf("runner-%d", i),
				Workers:     2,
				Poll:        10 * time.Millisecond,
				Logf:        t.Logf,
			}
			for _, mod := range mods {
				mod(&cfg)
			}
			errs[i] = RunRunner(cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("runner %d: %v", i, err)
		}
	}
}

func waitDone(t *testing.T, coord *Coordinator) {
	t.Helper()
	select {
	case <-coord.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator never finished merging")
	}
	if err := coord.Err(); err != nil {
		t.Fatalf("merge failed: %v", err)
	}
}

// TestFleetByteIdentical: a fleet of N runners must produce a merged
// record log and atlas snapshot byte-identical to a single-machine run,
// for N = 1 and N = 3 — the determinism pin the whole control plane
// hangs on.
func TestFleetByteIdentical(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	golden := t.TempDir()
	wantJSONL := singleMachine(t, spec, filepath.Join(golden, "golden.atlas"))
	wantAtlas := readFile(t, filepath.Join(golden, "golden.atlas"))

	for _, runners := range []int{1, 3} {
		runners := runners
		t.Run(fmt.Sprintf("runners=%d", runners), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			coord, srv := newTestCoordinator(t, dir, spec, nil)
			runRunners(t, srv.URL, runners)
			waitDone(t, coord)

			if got := readFile(t, filepath.Join(dir, "merged.jsonl")); !bytes.Equal(got, wantJSONL) {
				t.Fatalf("merged record log differs from single-machine run (%d vs %d bytes)", len(got), len(wantJSONL))
			}
			if got := readFile(t, filepath.Join(dir, "merged.atlas")); !bytes.Equal(got, wantAtlas) {
				t.Fatalf("merged atlas differs from single-machine run (%d vs %d bytes)", len(got), len(wantAtlas))
			}
			st := coord.Status()
			if !st.Done || st.Merged != st.Units {
				t.Fatalf("status after done: %+v", st)
			}
			if runners > 1 {
				checkRunnerRows(t, st)
			}
		})
	}
}

// checkRunnerRows: a finished fleet's runner rows are sorted by ID,
// credit every merged unit and record exactly once, and were seen no
// later than now.
func checkRunnerRows(t *testing.T, st Status) {
	t.Helper()
	units, records := 0, 0
	for i, r := range st.Runners {
		if i > 0 && st.Runners[i-1].ID >= r.ID {
			t.Errorf("runner rows not sorted by ID: %q before %q", st.Runners[i-1].ID, r.ID)
		}
		if r.IdleMS < 0 {
			t.Errorf("runner %s idle %d ms", r.ID, r.IdleMS)
		}
		units += r.Units
		records += r.Records
	}
	if units != st.Merged || records != st.Records {
		t.Errorf("runner rows credit %d units and %d records, status has %d merged units and %d records (%+v)",
			units, records, st.Merged, st.Records, st.Runners)
	}
}

// TestStatusString: the one-line progress report counts merged units as
// shipped and names expired leases only when there are any.
func TestStatusString(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		st   Status
		want string
	}{
		{Status{Units: 5, Unclaimed: 1, Leased: 2, Shipped: 2, Records: 10, Runners: make([]StatusRunner, 2)},
			"2/5 units shipped (2 leased, 0 merged), 10 records, 2 runners"},
		{Status{Units: 24, Merged: 24, Records: 600, ExpiredLeases: 3, Done: true, Runners: make([]StatusRunner, 1)},
			"24/24 units shipped (0 leased, 24 merged), 600 records, 1 runners, 3 leases expired"},
	} {
		if got := c.st.String(); got != c.want {
			t.Errorf("%+v: %q, want %q", c.st, got, c.want)
		}
	}
}

// TestRetriedShipCountsOnce: a ship whose manifest persist fails answers
// 500 and is undone; the runner's retry ships the unit again, and the
// status report counts that unit and its records once.
func TestRetriedShipCountsOnce(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	spec.Pairs = 8
	dir := t.TempDir()
	coord, _ := newTestCoordinator(t, dir, spec, func(cfg *CoordinatorConfig) { cfg.UnitSize = 64 })
	manifest := filepath.Join(dir, manifestName)
	h := coord.Handler()
	var failed atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ship" || failed.Swap(true) {
			h.ServeHTTP(w, r)
			return
		}
		// A non-empty directory where the manifest goes makes the rename
		// that persists it fail.
		if err := os.Remove(manifest); err != nil {
			t.Error(err)
		}
		if err := os.MkdirAll(filepath.Join(manifest, "blocker"), 0o755); err != nil {
			t.Error(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if err := os.RemoveAll(manifest); err != nil {
			t.Error(err)
		}
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("ship with an unwritable manifest returned %d, want 500", rec.Code)
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	runRunners(t, srv.URL, 1)
	waitDone(t, coord)

	st := coord.Status()
	if len(st.Runners) != 1 || st.Runners[0].Units != 1 || st.Runners[0].Records != st.Records {
		t.Errorf("runner rows %+v, want one with 1 unit and %d records", st.Runners, st.Records)
	}
	if got, want := st.String(), "1/1 units shipped (0 leased, 1 merged), 8 records, 1 runners"; got != want {
		t.Errorf("status line %q, want %q", got, want)
	}
}

// TestFleetSummaryMatchesSingleMachine: the summary a 3-runner fleet's
// coordinator prints is the text a single-machine run's aggregate sink
// renders for the same spec — both are the one record fold.
func TestFleetSummaryMatchesSingleMachine(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	u, rc, err := spec.plan()
	if err != nil {
		t.Fatal(err)
	}
	agg := survey.NewAggregateSink()
	rc.Sinks = []survey.Sink{agg}
	if _, err := survey.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	want := agg.Agg.Summary()
	if !strings.Contains(want, "measured: len2") {
		t.Fatalf("single-machine summary has no diamond percentages; the comparison would be weak:\n%s", want)
	}

	coord, srv := newTestCoordinator(t, t.TempDir(), spec, nil)
	runRunners(t, srv.URL, 3)
	waitDone(t, coord)
	if got := coord.Summary(); got != want {
		t.Fatalf("fleet summary:\n%s\nsingle-machine summary:\n%s", got, want)
	}
}

// claimAs issues one raw claim, returning the leased unit. Used to
// impersonate a runner that dies immediately after claiming.
func claimAs(t *testing.T, url, runner string) claimResponse {
	t.Helper()
	body, _ := json.Marshal(claimRequest{Runner: runner})
	resp, err := http.Post(url+"/v1/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim returned %d", resp.StatusCode)
	}
	var cr claimResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestDeadRunnerReassignment: a runner that claims a unit and dies
// without renewing loses the lease at TTL expiry; the unit is
// reassigned and the final outputs are still byte-identical to an
// uninterrupted single-machine run. The claim-then-silence here is
// observationally identical, from the coordinator's side, to kill -9:
// the socket just goes quiet. (The CI fleet-smoke job kills a real
// runner process for the full-stack version.)
func TestDeadRunnerReassignment(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	golden := t.TempDir()
	wantJSONL := singleMachine(t, spec, filepath.Join(golden, "golden.atlas"))
	wantAtlas := readFile(t, filepath.Join(golden, "golden.atlas"))

	dir := t.TempDir()
	coord, srv := newTestCoordinator(t, dir, spec, func(cfg *CoordinatorConfig) {
		cfg.LeaseTTL = 150 * time.Millisecond
	})

	// The ghost claims the first unit and is never heard from again.
	ghost := claimAs(t, srv.URL, "ghost")
	if ghost.Status != StatusUnit || ghost.Unit == nil {
		t.Fatalf("ghost claim: %+v", ghost)
	}

	runRunners(t, srv.URL, 1)
	waitDone(t, coord)

	if got := readFile(t, filepath.Join(dir, "merged.jsonl")); !bytes.Equal(got, wantJSONL) {
		t.Fatalf("merged record log differs after reassignment (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	if got := readFile(t, filepath.Join(dir, "merged.atlas")); !bytes.Equal(got, wantAtlas) {
		t.Fatalf("merged atlas differs after reassignment (%d vs %d bytes)", len(got), len(wantAtlas))
	}

	st := coord.Status()
	if st.ExpiredLeases < 1 {
		t.Fatalf("expected at least one expired lease, status %+v", st)
	}
	coord.mu.Lock()
	attempts := coord.st.units[ghost.Unit.ID].Attempts
	coord.mu.Unlock()
	if attempts < 2 {
		t.Fatalf("abandoned unit %d has %d lease attempts, want >= 2", ghost.Unit.ID, attempts)
	}
}

// TestStaleShipRejected: a shipment under an expired (reassigned) lease
// must be refused with 410 Gone, keeping unit ownership unambiguous.
func TestStaleShipRejected(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, srv := newTestCoordinator(t, dir, testSpec(), func(cfg *CoordinatorConfig) {
		cfg.LeaseTTL = 50 * time.Millisecond
	})

	ghost := claimAs(t, srv.URL, "ghost")
	if ghost.Status != StatusUnit {
		t.Fatalf("ghost claim: %+v", ghost)
	}
	time.Sleep(150 * time.Millisecond) // let the lease expire

	// The same unit goes to another runner, which proves expiry happened.
	other := claimAs(t, srv.URL, "other")
	if other.Status != StatusUnit || other.Unit.ID != ghost.Unit.ID {
		t.Fatalf("expected reassignment of unit %d, got %+v", ghost.Unit.ID, other)
	}

	if code := shipAs(t, srv.URL, "ghost", ghost, nil); code != http.StatusGone {
		t.Fatalf("stale ship returned %d, want %d", code, http.StatusGone)
	}
}

// TestOversizedShipRefused: a shipment larger than the unit's ceiling
// (maxShipRecordBytes per job) is refused with 413 before it is
// buffered, the unit stays leased to the same runner, and that lease
// can then ship the real payload.
func TestOversizedShipRefused(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	golden := singleMachine(t, spec, "")
	_, srv := newTestCoordinator(t, t.TempDir(), spec, nil)

	cr := claimAs(t, srv.URL, "r")
	if cr.Status != StatusUnit {
		t.Fatalf("claim: %+v", cr)
	}
	over := make([]byte, cr.Unit.Count*maxShipRecordBytes+1)
	if code := shipAs(t, srv.URL, "r", cr, over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ship returned %d, want %d", code, http.StatusRequestEntityTooLarge)
	}
	if other := claimAs(t, srv.URL, "other"); other.Status == StatusUnit && other.Unit.ID == cr.Unit.ID {
		t.Fatalf("unit %d was handed out again after the refused ship", cr.Unit.ID)
	}
	if code := shipAs(t, srv.URL, "r", cr, unitPayload(golden, cr.Unit)); code != http.StatusOK {
		t.Fatalf("real payload under the same lease returned %d, want 200", code)
	}
}

// shipAs posts one shipment under a claimed lease and returns the
// status code.
func shipAs(t *testing.T, url, runner string, cr claimResponse, body []byte) int {
	t.Helper()
	target := fmt.Sprintf("%s/v1/ship?unit=%d&lease=%d&runner=%s", url, cr.Unit.ID, cr.LeaseID, runner)
	resp, err := http.Post(target, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// unitPayload cuts a unit's honest shipment out of a whole-survey log.
func unitPayload(golden []byte, u *UnitInfo) []byte {
	lines := bytes.SplitAfter(golden, []byte("\n"))
	return bytes.Join(lines[u.Start:u.Start+u.Count], nil)
}

// poisons returns hostile variants of an honest shipment: a malformed
// address, a successor index naming no vertex, and more hops than a TTL
// allows, each in the shipment's first record.
func poisons(t *testing.T, payload []byte) map[string][]byte {
	t.Helper()
	first, rest, _ := bytes.Cut(payload, []byte("\n"))
	reencode := func(mutate func(*traceio.SurveyRecord)) []byte {
		var rec traceio.SurveyRecord
		if err := json.Unmarshal(first, &rec); err != nil {
			t.Fatal(err)
		}
		mutate(&rec)
		var b bytes.Buffer
		if err := rec.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return append(b.Bytes(), rest...)
	}
	out := map[string][]byte{
		"malformed address": bytes.Replace(payload, []byte(`"hops":[["`), []byte(`"hops":[["999.`), 1),
		"successor out of range": reencode(func(r *traceio.SurveyRecord) {
			r.Succ[0] = append(r.Succ[0], int32(len(r.Succ)))
		}),
		"256 hops": reencode(func(r *traceio.SurveyRecord) {
			for len(r.Hops) <= 255 {
				r.Hops = append(r.Hops, []packet.Addr{})
			}
		}),
	}
	for name, p := range out {
		if bytes.Equal(p, payload) {
			t.Fatalf("poison %q left the shipment unchanged", name)
		}
	}
	return out
}

// TestPoisonedShipRefused: ship validation decodes every record through
// the record's structural checks, so a shipment with a malformed
// address, a dangling successor index or too many hops gets 400 and the
// lease is untouched — its holder then ships the honest payload, an
// honest runner finishes the fleet, and the outputs are byte-identical
// to the single-machine run. A shard damaged on disk after its ship
// still fails the merge cleanly: Done closes, Err is set, and status
// does not report done.
func TestPoisonedShipRefused(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	spec.Pairs = 6
	golden := t.TempDir()
	wantJSONL := singleMachine(t, spec, filepath.Join(golden, "golden.atlas"))
	wantAtlas := readFile(t, filepath.Join(golden, "golden.atlas"))
	threeUnits := func(cfg *CoordinatorConfig) { cfg.UnitSize = 2 }

	dir := t.TempDir()
	coord, srv := newTestCoordinator(t, dir, spec, threeUnits)
	cr := claimAs(t, srv.URL, "hostile")
	if cr.Status != StatusUnit {
		t.Fatalf("claim: %+v", cr)
	}
	honest := unitPayload(wantJSONL, cr.Unit)
	for name, poisoned := range poisons(t, honest) {
		if code := shipAs(t, srv.URL, "hostile", cr, poisoned); code != http.StatusBadRequest {
			t.Fatalf("%s: poisoned ship returned %d, want %d", name, code, http.StatusBadRequest)
		}
	}
	if code := shipAs(t, srv.URL, "hostile", cr, honest); code != http.StatusOK {
		t.Fatalf("honest payload under the same lease returned %d, want 200", code)
	}
	runRunners(t, srv.URL, 1)
	waitDone(t, coord)
	if got := readFile(t, filepath.Join(dir, "merged.jsonl")); !bytes.Equal(got, wantJSONL) {
		t.Fatalf("merged record log differs after refused poisons (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	if got := readFile(t, filepath.Join(dir, "merged.atlas")); !bytes.Equal(got, wantAtlas) {
		t.Fatalf("merged atlas differs after refused poisons (%d vs %d bytes)", len(got), len(wantAtlas))
	}

	dir = t.TempDir()
	coord, srv = newTestCoordinator(t, dir, spec, threeUnits)
	for i := 0; i < 3; i++ {
		cr := claimAs(t, srv.URL, "r")
		if cr.Status != StatusUnit {
			t.Fatalf("claim %d: %+v", i, cr)
		}
		payload := unitPayload(wantJSONL, cr.Unit)
		if code := shipAs(t, srv.URL, "r", cr, payload); code != http.StatusOK {
			t.Fatalf("ship %d returned %d", i, code)
		}
		if i == 0 {
			// Damage the first shard on disk once it is durable, before the
			// last ship triggers the merge.
			shard := filepath.Join(dir, fmt.Sprintf("unit-%06d.jsonl", cr.Unit.ID))
			if err := os.WriteFile(shard, poisons(t, payload)["successor out of range"], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-coord.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator never finished merging")
	}
	if err := coord.Err(); err == nil {
		t.Fatal("merge of a damaged shard succeeded")
	}
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status after failed merge: code %d, err %v", resp.StatusCode, err)
	}
	if st.Done {
		t.Fatalf("status reports done after a failed merge: %+v", st)
	}
}

// TestCoordinatorResume: a coordinator killed mid-survey restarts with
// -resume, restores the durably shipped units from the manifest, and
// the fleet finishes the remainder — outputs byte-identical to an
// uninterrupted run.
func TestCoordinatorResume(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	golden := t.TempDir()
	wantJSONL := singleMachine(t, spec, filepath.Join(golden, "golden.atlas"))
	wantAtlas := readFile(t, filepath.Join(golden, "golden.atlas"))

	dir := t.TempDir()

	// Phase 1: ship two units, then the coordinator "dies" (server
	// closes; the in-memory lease table is lost, the manifest is not).
	coordA, srvA := newTestCoordinator(t, dir, spec, nil)
	err := RunRunner(RunnerConfig{
		Coordinator: srvA.URL, ID: "runner-a", Workers: 2,
		Poll: 10 * time.Millisecond, MaxUnits: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := coordA.Status(); st.Shipped != 2 {
		t.Fatalf("phase 1 shipped %d units, want 2", st.Shipped)
	}
	srvA.Close()

	// Phase 2: a fresh coordinator resumes from the manifest.
	coordB, srvB := newTestCoordinator(t, dir, spec, func(cfg *CoordinatorConfig) {
		cfg.Resume = true
	})
	if st := coordB.Status(); st.Shipped != 2 {
		t.Fatalf("resume restored %d shipped units, want 2 (status %+v)", st.Shipped, st)
	}
	runRunners(t, srvB.URL, 2)
	waitDone(t, coordB)

	if got := readFile(t, filepath.Join(dir, "merged.jsonl")); !bytes.Equal(got, wantJSONL) {
		t.Fatalf("merged record log differs after coordinator resume (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	if got := readFile(t, filepath.Join(dir, "merged.atlas")); !bytes.Equal(got, wantAtlas) {
		t.Fatalf("merged atlas differs after coordinator resume (%d vs %d bytes)", len(got), len(wantAtlas))
	}
}

// TestResumeRetracesCorruptShard: a restarted coordinator checks every
// shard its manifest names as it checks a shipment. A shard overwritten
// with junk is not restored: its unit is traced again, and the merge
// yields the single-machine bytes instead of failing on the junk.
func TestResumeRetracesCorruptShard(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	golden := t.TempDir()
	wantJSONL := singleMachine(t, spec, filepath.Join(golden, "golden.atlas"))
	wantAtlas := readFile(t, filepath.Join(golden, "golden.atlas"))

	dir := t.TempDir()
	coordA, srvA := newTestCoordinator(t, dir, spec, nil)
	err := RunRunner(RunnerConfig{
		Coordinator: srvA.URL, ID: "runner-a", Workers: 2,
		Poll: 10 * time.Millisecond, MaxUnits: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := coordA.Status(); st.Shipped != 2 {
		t.Fatalf("phase 1 shipped %d units, want 2", st.Shipped)
	}
	srvA.Close()
	if err := os.WriteFile(filepath.Join(dir, "unit-000000.jsonl"), []byte("not a record\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	coordB, srvB := newTestCoordinator(t, dir, spec, func(cfg *CoordinatorConfig) {
		cfg.Resume = true
	})
	if st := coordB.Status(); st.Shipped != 1 || st.Unclaimed != st.Units-1 {
		t.Fatalf("resume over a corrupt shard: %s, want only the intact unit restored", st)
	}
	runRunners(t, srvB.URL, 2)
	waitDone(t, coordB)
	if got := readFile(t, filepath.Join(dir, "merged.jsonl")); !bytes.Equal(got, wantJSONL) {
		t.Fatalf("merged record log differs after re-tracing the corrupt unit (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	if got := readFile(t, filepath.Join(dir, "merged.atlas")); !bytes.Equal(got, wantAtlas) {
		t.Fatalf("merged atlas differs after re-tracing the corrupt unit (%d vs %d bytes)", len(got), len(wantAtlas))
	}
}

// TestResumeRefusesForeignSpans: a manifest that passes validation but
// cuts the job list into other spans than the plan does is refused,
// because a resumed row would otherwise carry a shard of another span.
func TestResumeRefusesForeignSpans(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	newTestCoordinator(t, dir, testSpec(), nil)
	path := filepath.Join(dir, manifestName)
	m, err := traceio.ReadFleetManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Units[0].Count--
	m.Units[1].Start--
	m.Units[1].Count++
	if err := m.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	_, err = NewCoordinator(CoordinatorConfig{Spec: testSpec(), Dir: dir, UnitSize: 5, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "this plan cuts [0,5)") {
		t.Fatalf("resume from a manifest of other spans: %v", err)
	}
}

// virtualClock is a test clock that moves only when a runner waits on
// it: each sleep advances it by its duration and returns at once.
type virtualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// traceCharges counts, per destination /24, the trace probes a metered
// runner charges the budget for: one per Probe and len(specs) per
// ProbeBatch. Retries inside the prober ride the same charge, so this is
// what the budget meters, not what a record's probe count reports.
type traceCharges struct {
	mu sync.Mutex
	n  map[packet.Addr]int
}

func (c *traceCharges) add(prefix packet.Addr, n int) {
	c.mu.Lock()
	c.n[prefix] += n
	c.mu.Unlock()
}

// chargeCounter is an unmetered prober that tallies its trace probes'
// charges as meteredProber would levy them.
type chargeCounter struct {
	probe.Prober
	prefix  packet.Addr
	charges *traceCharges
}

func (p chargeCounter) Probe(flowID uint16, ttl int) *packet.Reply {
	p.charges.add(p.prefix, 1)
	return p.Prober.Probe(flowID, ttl)
}

func (p chargeCounter) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	p.charges.add(p.prefix, len(specs))
	return p.Prober.ProbeBatch(specs)
}

// meteredFleet runs the first pairs of the test survey on a 2-runner
// fleet metered at rate probes/s per /24 (burst 50), with the budget and
// the runners' waits on clock when it is non-nil and on the real clock
// otherwise. It fails unless the merged record log is byte-identical to
// an unmetered single-machine run, and returns the trace probes that run
// charged per /24.
func meteredFleet(t *testing.T, pairs int, rate float64, clock *virtualClock) map[packet.Addr]int {
	t.Helper()
	spec := testSpec()
	spec.Pairs = pairs
	charges := &traceCharges{n: map[packet.Addr]int{}}
	wantJSONL := singleMachine(t, spec, "", func(rc *survey.RunConfig) {
		rc.WrapProber = func(pair survey.Pair, p probe.Prober) probe.Prober {
			return chargeCounter{Prober: p, prefix: Prefix24(pair.Dst), charges: charges}
		}
	})

	fleetSpec := spec
	fleetSpec.BudgetRate = rate
	fleetSpec.BudgetBurst = 50
	dir := t.TempDir()
	coord, srv := newTestCoordinator(t, dir, fleetSpec, func(cfg *CoordinatorConfig) {
		cfg.UnitSize = 3
		cfg.AtlasPath = ""
	})
	var virtual []func(*RunnerConfig)
	if clock != nil {
		coord.budget.now = clock.Now
		virtual = append(virtual, func(cfg *RunnerConfig) { cfg.sleep = clock.Sleep })
	}
	runRunners(t, srv.URL, 2, virtual...)
	waitDone(t, coord)

	if got := readFile(t, filepath.Join(dir, "merged.jsonl")); !bytes.Equal(got, wantJSONL) {
		t.Fatalf("metered fleet record log differs from unmetered single-machine run (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	return charges.n
}

// TestFleetWithBudgetByteIdentical: probe budgeting shapes timing only
// — a metered fleet's outputs stay byte-identical to an unmetered
// single-machine run. The budget runs on a virtual clock that moves only
// while runners wait, so a budget tight enough to stall every runner
// costs no wall time.
func TestFleetWithBudgetByteIdentical(t *testing.T) {
	t.Parallel()
	const rate, burst = 500, 50
	start := time.Unix(1000, 0)
	clock := &virtualClock{now: start}
	charged := meteredFleet(t, 8, rate, clock)

	// A prefix's bucket grants at most burst + rate × elapsed tokens, and
	// only waits move the clock, so it must have moved at least (probes −
	// burst) / rate for every prefix: proof that short grants and waits
	// happened. The bound allows one token for the bucket's float
	// arithmetic; this run meets the exact bound.
	elapsed := clock.Now().Sub(start)
	for prefix, n := range charged {
		if need := time.Duration(n-burst-1) * time.Second / rate; elapsed < need {
			t.Errorf("prefix %s: %d probes at %d/s after a burst of %d in %v, want at least %v",
				prefix, n, rate, burst, elapsed, need)
		}
	}
}

// TestFleetWithBudgetRealClock: the same metering on the real clock,
// with real sleeps. Two pairs charge ~2 000 probes to one /24, so at
// 10 000 probes/s the waits total ~0.2 s.
func TestFleetWithBudgetRealClock(t *testing.T) {
	t.Parallel()
	meteredFleet(t, 2, 10000, nil)
}

// TestRunnerRejectsForeignSpec: a runner whose binary derives a
// different plan fingerprint must refuse to trace rather than splice
// mismatched records into the survey.
func TestRunnerRejectsForeignSpec(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	u, rc, err := spec.plan()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/claim" {
			writeErr(w, http.StatusNotFound, "no")
			return
		}
		bad := spec
		bad.OptionsHash = survey.Fingerprint(u, rc) + 1 // corrupted/diverged coordinator
		writeJSON(w, http.StatusOK, claimResponse{
			Status:  StatusUnit,
			Unit:    &UnitInfo{ID: 0, Start: 0, Count: 5},
			LeaseID: 1, TTLMillis: 60000, Spec: &bad,
		})
	}))
	defer srv.Close()

	err = RunRunner(RunnerConfig{Coordinator: srv.URL, ID: "r", Poll: time.Millisecond})
	if err == nil {
		t.Fatal("runner accepted a spec whose fingerprint does not match its own plan")
	}
}
