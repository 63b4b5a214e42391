package progress

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Fleet tracks distributed-survey progress on the coordinator: work
// units through the lease state machine, records shipped, lease
// expiries, and a per-runner activity table. Like Survey it is purely
// observational — counters feed the surveyd status line and the
// /v1/status endpoint, never scheduling decisions — but unlike
// Survey it is mutex-based: updates are control-plane-rate (one per
// HTTP call), not probe-rate.
type Fleet struct {
	mu      sync.Mutex
	start   time.Time
	units   int
	leased  int
	shipped int
	merged  int
	records int
	expired int
	runners map[string]*fleetRunner
}

type fleetRunner struct {
	units    int
	records  int
	lastSeen time.Time
}

// NewFleet returns a tracker for a survey sharded into units work
// units.
func NewFleet(units int) *Fleet {
	return &Fleet{start: time.Now(), units: units, runners: make(map[string]*fleetRunner)}
}

func (f *Fleet) runner(id string) *fleetRunner {
	r := f.runners[id]
	if r == nil {
		r = &fleetRunner{}
		f.runners[id] = r
	}
	r.lastSeen = time.Now()
	return r
}

// Seen marks runner activity (any authenticated-enough HTTP call).
func (f *Fleet) Seen(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.runner(id)
}

// Leased records a lease grant to the runner.
func (f *Fleet) Leased(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.runner(id)
	f.leased++
}

// Shipped records a unit's records landing durably, credited to the
// runner.
func (f *Fleet) Shipped(id string, records int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.runner(id)
	r.units++
	r.records += records
	f.leased--
	f.shipped++
	f.records += records
}

// LeaseExpired records a lease lost to TTL expiry (runner death or
// stall); the unit went back to unclaimed.
func (f *Fleet) LeaseExpired() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.leased--
	f.expired++
}

// UnitMerged records one shipped unit folded into the final outputs.
func (f *Fleet) UnitMerged() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.merged++
}

// Restored seeds the tracker with units already shipped by an earlier
// coordinator process (manifest resume): n units covering records
// records, attributed to no live runner.
func (f *Fleet) Restored(n, records int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shipped += n
	f.records += records
}

// FleetRunner is one runner's row in a status snapshot.
type FleetRunner struct {
	ID       string
	Units    int
	Records  int
	LastSeen time.Time
}

// FleetSnapshot is a point-in-time view for reporting.
type FleetSnapshot struct {
	Units, Leased, Shipped, Merged int
	Records                        int
	ExpiredLeases                  int
	Elapsed                        time.Duration
	// Runners is sorted by ID for stable rendering.
	Runners []FleetRunner
}

// Snapshot reads the counters.
func (f *Fleet) Snapshot() FleetSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FleetSnapshot{
		Units: f.units, Leased: f.leased, Shipped: f.shipped, Merged: f.merged,
		Records: f.records, ExpiredLeases: f.expired,
		Elapsed: time.Since(f.start),
	}
	for id, r := range f.runners {
		s.Runners = append(s.Runners, FleetRunner{ID: id, Units: r.units, Records: r.records, LastSeen: r.lastSeen})
	}
	sort.Slice(s.Runners, func(i, j int) bool { return s.Runners[i].ID < s.Runners[j].ID })
	return s
}

// String renders a one-line status suitable for periodic stderr output.
func (s FleetSnapshot) String() string {
	line := fmt.Sprintf("%d/%d units shipped (%d leased, %d merged), %d records, %d runners",
		s.Shipped, s.Units, s.Leased, s.Merged, s.Records, len(s.Runners))
	if s.ExpiredLeases > 0 {
		line += fmt.Sprintf(", %d leases expired", s.ExpiredLeases)
	}
	return line
}
