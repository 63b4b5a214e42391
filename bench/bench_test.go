package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCommand pins BENCHMARK.json to what the
// command emits: workload names and rationale, end-to-end names, units,
// directions and bounds, per-layer names, units and directions.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the command %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the command", len(f.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := f.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the command %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(f.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the command", len(f.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		got := f.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the command %+v", i, got, d)
		}
	}
	for name, d := range defs {
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("metric name %q", name)
		}
		if d.Unit == "" || len(d.Unit) > 16 {
			t.Errorf("%s: unit %q", name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", name, d.Better)
		}
	}
}

// TestEveryWorkloadTiny runs every workload at smoke-test size, untraced
// and traced, so that a refactor of internal/... that breaks the
// benchmark fails tier-1 instead of silently rotting it. It asserts
// that each run is correct, emits every contract metric of its mode
// exactly once with its unit and a finite value, and that no end-to-end
// metric reads zero.
func TestEveryWorkloadTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/atlasd and runs six workloads")
	}
	build := t.TempDir() // scratch and the atlasd binary, outside the source tree
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []int{0, 1} {
			rep, err := runOne(w, options{seed: 1, seconds: 0.05, trace: trace}, build, true)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d %v", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			seen := make(map[string]int)
			for _, m := range rep.Metrics {
				seen[m.Name]++
				d, ok := defs[m.Name]
				if !ok {
					t.Errorf("%s: metric %q is not in the dictionary", w.Name, m.Name)
					continue
				}
				if m.Unit != d.Unit || m.Unit == "" {
					t.Errorf("%s: %s has unit %q, want %q", w.Name, m.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, m.Name, m.Value)
				}
				if (d.Kind == kindLayer) != (trace == 1) {
					t.Errorf("%s trace=%d emitted %s (%s)", w.Name, trace, m.Name, d.Kind)
				}
			}
			for name, n := range seen {
				if n != 1 {
					t.Errorf("%s trace=%d: %s emitted %d times", w.Name, trace, name, n)
				}
			}
			if trace == 0 {
				for _, d := range endToEndDefs {
					if m, ok := rep.metric(d.Name); !ok || m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v (present %t)", w.Name, d.Name, m.Value, ok)
					}
				}
			}
			var line struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(rep.contractLine()), &line); err != nil {
				t.Fatal(err)
			}
			want := len(endToEndDefs)
			if trace == 1 {
				want = len(layerDefs)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s trace=%d: result line carries %d metrics, want %d", w.Name, trace, len(line.Metrics), want)
			}
		}
	}
}

// TestCompareRefusesDifferentInputs pins the comparability rule: runs
// whose seeds or workload sizes differ are never compared.
func TestCompareRefusesDifferentInputs(t *testing.T) {
	a := &report{Workload: "ip-survey", Seed: 1, Sizes: map[string]int{"pairs": 10}}
	b := &report{Workload: "ip-survey", Seed: 2, Sizes: map[string]int{"pairs": 10}}
	if _, err := compareReports(a, b, io.Discard); err == nil {
		t.Error("compared runs of different seeds")
	}
	b.Seed, b.Sizes = 1, map[string]int{"pairs": 20}
	if _, err := compareReports(a, b, io.Discard); err == nil {
		t.Error("compared runs of different sizes")
	}
	b.Sizes = map[string]int{"pairs": 10}
	a.Metrics = []metric{{Name: "ops_per_s", Value: 100}, {Name: "probes_per_pair", Value: 7}}
	b.Metrics = []metric{{Name: "ops_per_s", Value: 95}, {Name: "probes_per_pair", Value: 7}}
	if bad, err := compareReports(a, b, io.Discard); err != nil || bad != 0 {
		t.Errorf("5%% slower is within the bound: bad=%d err=%v", bad, err)
	}
	b.Metrics[0].Value, b.Metrics[1].Value = 70, 7.5
	if bad, _ := compareReports(a, b, io.Discard); bad != 2 {
		t.Errorf("30%% slower and a moved exact metric: bad=%d, want 2", bad)
	}
}

// TestQuartilesMatchPython pins the spread computation to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
