package traceio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Fuzz targets for the two small durable files a resume trusts: the
// fleet manifest a restarted coordinator reads, and the checkpoint a
// resumed survey reads. For arbitrary file bytes the reader must not
// panic, and a file it accepts must re-marshal into bytes that read
// back to an equal value. CI's fuzz-smoke job runs each for a short
// budget; locally:
//
//	go test -run='^$' -fuzz='^FuzzFleetManifest$' -fuzztime=30s ./internal/traceio
//	go test -run='^$' -fuzz='^FuzzCheckpoint$' -fuzztime=30s ./internal/traceio

// readBack writes data to a fresh file and reads it with read.
func readBack[T any](t *testing.T, data []byte, read func(string) (*T, error)) (*T, error) {
	path := filepath.Join(t.TempDir(), "f.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return read(path)
}

// checkRewrite re-marshals an accepted value and requires the bytes to
// read back to an equal one.
func checkRewrite[T any](t *testing.T, v *T, read func(string) (*T, error)) {
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted %+v does not marshal: %v", v, err)
	}
	again, err := readBack(t, data, read)
	if err != nil {
		t.Fatalf("accepted %+v re-marshals to %s, which is refused: %v", v, data, err)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("accepted %+v re-marshals to %s, which reads back as %+v", v, data, again)
	}
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
		m, err := readBack(t, data, ReadFleetManifest)
		if err != nil {
			return
		}
		checkRewrite(t, m, ReadFleetManifest)
	})
}

func FuzzCheckpoint(f *testing.F) {
	path := filepath.Join(f.TempDir(), "survey.ckpt")
	ck := &Checkpoint{Kind: "survey", OptionsHash: 0xdeadbeef, Seed: 42, Total: 1000, Done: 250, Offset: 123456}
	if err := ck.WriteAtomic(path); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"version":1,"done":9,"total":3}`))
	f.Add([]byte(`{"version":1,"kind":"survey","total":-1,"done":-1,"offset":-1}`))
	f.Add([]byte(`{"version":1,`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := readBack(t, data, ReadCheckpoint)
		if err != nil {
			return
		}
		checkRewrite(t, c, ReadCheckpoint)
	})
}
