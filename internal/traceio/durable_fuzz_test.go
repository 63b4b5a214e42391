package traceio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Fuzz target for the one small durable file a resume trusts: the
// fleet manifest a restarted coordinator or a resumed single-machine
// survey reads. For arbitrary file bytes the reader must not panic, and
// a file it accepts must re-marshal into bytes that read back to an
// equal value. CI's fuzz-smoke job runs it for a short budget; locally:
//
//	go test -run='^$' -fuzz='^FuzzFleetManifest$' -fuzztime=30s ./internal/traceio

// readManifest writes data to a fresh file and reads it back.
func readManifest(t *testing.T, data []byte) (*FleetManifest, error) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return ReadFleetManifest(path)
}

func FuzzFleetManifest(f *testing.F) {
	path := filepath.Join(f.TempDir(), "m.json")
	if err := testManifest().WriteAtomic(path); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	hostile, err := json.Marshal(hostileManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(hostile)
	f.Add([]byte(`{"version":1,"kind":"fleet-survey","total":0,"unit_size":1,"units":[]}`))
	f.Add([]byte(`{"version":1,"kind":"fleet-survey","total":1,"unit_size":1,"units":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readManifest(t, data)
		if err != nil {
			return
		}
		// An accepted manifest re-marshals to bytes that read back equal.
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted %+v does not marshal: %v", m, err)
		}
		back, err := readManifest(t, again)
		if err != nil {
			t.Fatalf("accepted %+v re-marshals to %s, which is refused: %v", m, again, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("accepted %+v re-marshals to %s, which reads back as %+v", m, again, back)
		}
	})
}
