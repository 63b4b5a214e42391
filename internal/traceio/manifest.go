package traceio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Fleet manifest format.
//
// A fleet manifest is a survey's one durable record of progress, kept by
// a fleet coordinator and by a single-machine survey -checkpoint alike:
// how the survey's job list was sharded into work units and how far
// each unit has progressed through the lease state machine (unclaimed
// → leased → shipped → merged). It is replaced atomically
// (WriteFileAtomic) on every durable transition — a unit's shard file
// landing on disk, the final merge completing — so a survey killed at
// any point restarts from exactly the set of units whose outputs are
// already durable. Lease state is deliberately
// ephemeral: a restarted coordinator demotes leased units to unclaimed
// and lets the runners re-claim them, because an in-flight lease names
// work that produced no durable bytes yet.

// Fleet unit states, in lease-state-machine order.
const (
	UnitUnclaimed = "unclaimed"
	UnitLeased    = "leased"
	UnitShipped   = "shipped"
	UnitMerged    = "merged"
)

// FleetManifestVersion is the current manifest format version.
const FleetManifestVersion = 1

// fleetKind tags fleet manifests so other tools' files are rejected.
const fleetKind = "fleet-survey"

// FleetUnit is one work unit: a contiguous span of the survey's
// deterministic job list.
type FleetUnit struct {
	ID    int `json:"id"`
	Start int `json:"start"`
	Count int `json:"count"`
	// State is one of UnitUnclaimed, UnitLeased, UnitShipped, UnitMerged.
	State string `json:"state"`
	// Runner identifies the runner whose shipment produced Shard (for
	// shipped/merged units) or the current leaseholder (for leased ones).
	Runner string `json:"runner,omitempty"`
	// Shard is the per-unit JSONL record file, relative to the manifest's
	// directory, present once shipped.
	Shard string `json:"shard,omitempty"`
	// Records is the record count of the shipped shard (equals Count).
	Records int `json:"records,omitempty"`
	// Attempts counts lease grants, so reassignment after runner death is
	// visible in the manifest.
	Attempts int `json:"attempts,omitempty"`
}

// FleetManifest records a distributed survey's sharding and progress.
type FleetManifest struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// OptionsHash is the survey options fingerprint (survey.Fingerprint):
	// a resumed survey refuses a manifest from a different experiment.
	OptionsHash uint64 `json:"options_hash"`
	// Seed is the survey's base seed, kept readable for humans.
	Seed uint64 `json:"seed"`
	// Total is the length of the job list the units partition.
	Total int `json:"total"`
	// UnitSize is the span length units were cut at (the last unit may be
	// shorter).
	UnitSize int `json:"unit_size"`
	// Units lists every work unit in span order.
	Units []FleetUnit `json:"units"`
}

// WriteAtomic persists the manifest with a temp-file + rename + fsync.
func (m *FleetManifest) WriteAtomic(path string) error {
	m.Version = FleetManifestVersion
	m.Kind = fleetKind
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// Matches validates a manifest against the survey that wants to resume
// coordinating from it.
func (m *FleetManifest) Matches(optionsHash uint64, total, unitSize int) error {
	if m.OptionsHash != optionsHash {
		return fmt.Errorf("traceio: fleet manifest was written under different options (hash %#x, want %#x)", m.OptionsHash, optionsHash)
	}
	if m.Total != total {
		return fmt.Errorf("traceio: fleet manifest covers %d jobs, this survey selects %d", m.Total, total)
	}
	if m.UnitSize != unitSize {
		return fmt.Errorf("traceio: fleet manifest was sharded at unit size %d, this coordinator wants %d", m.UnitSize, unitSize)
	}
	return nil
}

// ReadFleetManifest loads and validates a manifest file. A missing file
// surfaces as an error satisfying os.IsNotExist. Validation checks what
// a coordinator can have written and a resume depends on: a
// non-negative Total and a positive UnitSize, units that partition
// [0, Total) contiguously in ID order, and a shipped or merged unit
// naming a shard inside the manifest's directory (filepath.IsLocal)
// that holds exactly its Count records.
func ReadFleetManifest(path string) (*FleetManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := new(FleetManifest)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("traceio: corrupt fleet manifest %s: %v", path, err)
	}
	if m.Version != FleetManifestVersion {
		return nil, fmt.Errorf("traceio: fleet manifest %s has version %d, want %d", path, m.Version, FleetManifestVersion)
	}
	if m.Kind != fleetKind {
		return nil, fmt.Errorf("traceio: %s is a %q file, not a fleet manifest", path, m.Kind)
	}
	if m.Total < 0 || m.UnitSize <= 0 {
		return nil, fmt.Errorf("traceio: fleet manifest %s: total %d, unit size %d", path, m.Total, m.UnitSize)
	}
	next := 0 // never above Total, so Total-next cannot overflow
	for i, u := range m.Units {
		if u.ID != i || u.Start != next || u.Count <= 0 || u.Count > m.Total-next {
			return nil, fmt.Errorf("traceio: fleet manifest %s: unit %d does not partition the job list (start=%d count=%d, want start=%d)", path, u.ID, u.Start, u.Count, next)
		}
		switch u.State {
		case UnitUnclaimed, UnitLeased:
		case UnitShipped, UnitMerged:
			if !filepath.IsLocal(u.Shard) || u.Records != u.Count {
				return nil, fmt.Errorf("traceio: fleet manifest %s: %s unit %d names shard %q of %d records, want a local file of %d", path, u.State, u.ID, u.Shard, u.Records, u.Count)
			}
		default:
			return nil, fmt.Errorf("traceio: fleet manifest %s: unit %d has unknown state %q", path, u.ID, u.State)
		}
		next += u.Count
	}
	if next != m.Total {
		return nil, fmt.Errorf("traceio: fleet manifest %s: units cover %d jobs, total says %d", path, next, m.Total)
	}
	return m, nil
}
