package traceio

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testManifest() *FleetManifest {
	return &FleetManifest{
		OptionsHash: 0xdeadbeef, Seed: 7, Total: 12, UnitSize: 5,
		Units: []FleetUnit{
			{ID: 0, Start: 0, Count: 5, State: UnitShipped, Runner: "r1", Shard: "unit-000000.jsonl", Records: 5, Attempts: 1},
			{ID: 1, Start: 5, Count: 5, State: UnitLeased, Runner: "r2", Attempts: 2},
			{ID: 2, Start: 10, Count: 2, State: UnitUnclaimed},
		},
	}
}

// hostileManifest is a manifest no coordinator writes: a negative total
// and unit size, spans whose sum overflows back onto that total, a
// shipped shard outside the fleet directory and a merged unit with no
// shard.
func hostileManifest() *FleetManifest {
	return &FleetManifest{
		Version: FleetManifestVersion, Kind: fleetKind,
		Total: -math.MaxInt, UnitSize: -4,
		Units: []FleetUnit{
			{ID: 0, Start: 0, Count: math.MaxInt, State: UnitUnclaimed},
			{ID: 1, Start: math.MaxInt, Count: 1, State: UnitShipped, Shard: "../../x", Records: 1},
			{ID: 2, Start: math.MinInt, Count: 1, State: UnitMerged},
		},
	}
}

func TestFleetManifestRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := testManifest()
	if err := m.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFleetManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", got, m)
	}
	if err := got.Matches(0xdeadbeef, 12, 5); err != nil {
		t.Fatal(err)
	}
}

func TestFleetManifestMatchesRejectsMismatches(t *testing.T) {
	t.Parallel()
	m := testManifest()
	cases := []struct {
		name             string
		hash             uint64
		total, unitSize  int
		wantErrSubstring string
	}{
		{"hash", 0xbad, 12, 5, "different options"},
		{"total", 0xdeadbeef, 13, 5, "jobs"},
		{"unitsize", 0xdeadbeef, 12, 6, "unit size"},
	}
	for _, tc := range cases {
		err := m.Matches(tc.hash, tc.total, tc.unitSize)
		if err == nil || !strings.Contains(err.Error(), tc.wantErrSubstring) {
			t.Fatalf("%s: got %v, want error containing %q", tc.name, err, tc.wantErrSubstring)
		}
	}
}

func TestFleetManifestValidation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	write := func(mut func(*FleetManifest)) string {
		m := testManifest()
		if err := m.WriteAtomic(filepath.Join(dir, "m.json")); err != nil {
			t.Fatal(err)
		}
		// WriteAtomic stamps version/kind; mutate afterwards via re-read.
		got, err := ReadFleetManifest(filepath.Join(dir, "m.json"))
		if err != nil {
			t.Fatal(err)
		}
		mut(got)
		path := filepath.Join(dir, "mut.json")
		if err := writeRaw(path, got); err != nil {
			t.Fatal(err)
		}
		return path
	}

	for _, tc := range []struct {
		name string
		mut  func(*FleetManifest)
	}{
		{"gap in partition", func(m *FleetManifest) { m.Units[1].Start = 6 }},
		{"bad id order", func(m *FleetManifest) { m.Units[1].ID = 5 }},
		{"unknown state", func(m *FleetManifest) { m.Units[0].State = "lost" }},
		{"short coverage", func(m *FleetManifest) { m.Total = 99 }},
		{"bad version", func(m *FleetManifest) { m.Version = 42 }},
		{"bad kind", func(m *FleetManifest) { m.Kind = "checkpoint" }},
		// The first two sum to their total only through int overflow.
		{"negative total", func(m *FleetManifest) { *m = *hostileManifest() }},
		{"unit past total", func(m *FleetManifest) {
			m.Units = []FleetUnit{
				{ID: 0, Start: 0, Count: math.MaxInt, State: UnitUnclaimed},
				{ID: 1, Start: math.MaxInt, Count: math.MaxInt, State: UnitUnclaimed},
				{ID: 2, Start: -2, Count: 14, State: UnitUnclaimed}, // wraps back to 12
			}
		}},
		{"zero unit size", func(m *FleetManifest) { m.UnitSize = 0 }},
		{"shard outside the directory", func(m *FleetManifest) { m.Units[0].Shard = "../../x" }},
		{"absolute shard", func(m *FleetManifest) { m.Units[0].Shard = "/etc/passwd" }},
		{"shipped unit without shard", func(m *FleetManifest) { m.Units[0].Shard = "" }},
		{"merged unit without shard", func(m *FleetManifest) {
			m.Units[0].State = UnitMerged
			m.Units[0].Shard = ""
		}},
		{"shipped records short of count", func(m *FleetManifest) { m.Units[0].Records = 4 }},
	} {
		path := write(tc.mut)
		if _, err := ReadFleetManifest(path); err == nil {
			t.Fatalf("%s: corrupt manifest was accepted", tc.name)
		}
	}
}

// writeRaw persists the manifest without WriteAtomic's version/kind
// re-stamping, so tests can write deliberately invalid files.
func writeRaw(path string, m *FleetManifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
