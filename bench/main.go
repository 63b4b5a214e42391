// Command bench is the repository's benchmark: the instrument every
// later performance or no-regression claim is measured with. It sits
// above every layer — it imports mmlpt/internal/... from outside and
// times only calls into each layer's public functions — and runs six
// named workloads over the paths a user actually runs (cmd/survey →
// JSONL → atlas → snapshot, the atlas-prior re-survey, the router-level
// survey, the atlas write path, atlasd over loopback HTTP, and the
// surveyd + runners fleet). An untraced run reports end-to-end metrics;
// a traced run reports per-layer metrics and writes the spans. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// Usage:
//
//	go run ./bench -workload ip-survey            # one workload, end to end
//	go run ./bench -workload all                  # all six, one child process each
//	go run ./bench -workload ip-survey -trace 1   # per-layer metrics + bench/out/trace-ip-survey.json
//	go run ./bench -selfcheck                     # two sets of runs, compared within the bounds
//	go run ./bench -compare old.json new.json     # two -json files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupReps is how many times a workload repeats its set-up so that
	// setup_s is a median, not a single sample.
	setupReps = 3
	// minPasses is the least number of timed passes, whatever -seconds.
	minPasses = 3
	// maxProcs caps GOMAXPROCS: the load generators never use more
	// goroutines or connections than the pinned value.
	maxProcs = 4
)

// workload is one named set of inputs. Names are fixed: later issues
// refer to them. Why is recorded in BENCHMARK.json.
type workload struct {
	Name string
	Why  string
	run  func(*runCtx) error
}

var workloads = []workload{
	{"ip-survey",
		"cmd/survey -level ip -out -atlas: MDA over the simulator; probe round trip and tracer bookkeeping dominate.",
		func(c *runCtx) error {
			return runSurvey(c, surveySpec{level: "ip", pairs: c.pick(2000, 60), worldSeed: 1})
		}},
	{"ip-resurvey-prior",
		"cmd/survey -prior: MDA-Lite seeded from a first pass's atlas; half the probes, so sinks, serve scan and tracer show.",
		func(c *runCtx) error {
			return runSurvey(c, surveySpec{level: "ip", pairs: c.pick(2000, 60), worldSeed: 1, prior: true})
		}},
	{"router-survey",
		"cmd/survey -level router: multilevel tracer, echo probes and IP-ID series; alias/obs dominate, probing does not.",
		func(c *runCtx) error {
			return runSurvey(c, surveySpec{level: "router", pairs: c.pick(14, 6), worldSeed: 3})
		}},
	{"atlas-compact",
		"Atlas write path with zero probing: ingest 8 record slices, save deltas, Compact; overlapping addresses make the merge work.",
		runAtlasCompact},
	{"atlasd-queries",
		"Atlas read path through the real atlasd binary over loopback HTTP: cold starts, then a hot/cold query mix that evicts shards.",
		runAtlasdQueries},
	{"fleet-survey",
		"surveyd + 2 runners in-process over loopback HTTP: ip-survey's tracing plus claim/ship, shard persistence and merge.",
		runFleetSurvey},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	jsonOut   string
	selfcheck bool
	compare   bool
	runs      int
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all (one child process per workload)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed passes of one workload measure")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	fs.StringVar(&o.jsonOut, "json", "", "also write the full report(s) to this JSON file")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets of runs back to back and compare them within the bounds")
	fs.IntVar(&o.runs, "runs", 5, "with -selfcheck: runs per set and workload, seeds seed..seed+runs-1")
	fs.BoolVar(&o.compare, "compare", false, "compare two -json files: bench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 || o.seconds <= 0 || o.runs < 2 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1, -seconds must be positive, -runs at least 2")
		return 2
	}
	runtime.GOMAXPROCS(pinnedProcs())

	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		err = compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case o.selfcheck:
		err = selfcheck(o, stdout, stderr)
	case o.workload == "all":
		var reps []*report
		reps, err = runAll(o, stdout, stderr)
		if err == nil && o.jsonOut != "" {
			err = writeJSON(o.jsonOut, reps)
		}
		for _, r := range reps {
			if !r.Correct {
				err = errors.Join(err, fmt.Errorf("%s: correctness checks failed", r.Workload))
			}
		}
	default:
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		var rep *report
		rep, err = runOne(w, o, "", false)
		if rep != nil {
			rep.print(stdout)
			if o.jsonOut != "" {
				err = errors.Join(err, writeJSON(o.jsonOut, []*report{rep}))
			}
			// The contract's result: the last line of standard output.
			fmt.Fprintln(stdout, rep.contractLine())
			if err == nil && !rep.Correct {
				err = errors.New("correctness checks failed")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func pinnedProcs() int {
	n := runtime.NumCPU()
	if n > maxProcs {
		n = maxProcs
	}
	return n
}

// moduleRoot walks up from the working directory to the go.mod of
// module mmlpt: the benchmark builds cmd/atlasd there and keeps its
// scratch and output directories relative to it.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module mmlpt\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the mmlpt module (no go.mod found)")
		}
		dir = parent
	}
}

// buildDir is where scratch files and built binaries go: .bench_build
// inside the checkout, never a system temp dir.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// runOne runs one workload in this process. Scratch files live in a
// per-run directory under build, removed on exit; built binaries are
// kept in build/bin between runs. tiny selects smoke-test sizes.
func runOne(w *workload, o options, build string, tiny bool) (rep *report, err error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if build == "" {
		build = buildDir(root)
	}
	binDir := filepath.Join(build, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if e := os.RemoveAll(scratch); e != nil && err == nil {
			err = e
		}
	}()
	c := &runCtx{
		seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)),
		traced: o.trace == 1, tiny: tiny, procs: runtime.GOMAXPROCS(0),
		root: root, scratch: scratch, binDir: binDir,
		rep: &report{
			Workload: w.Name, Why: w.Why, Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1,
			Env: readFingerprint(root),
		},
	}
	if c.traced {
		c.tr = newTracer()
	}
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	c.finish()
	if c.traced && c.tr != nil && !tiny {
		c.rep.TraceFile, err = c.tr.write(filepath.Join(root, "bench", "out"), w.Name, map[string]any{
			"seed": o.seed, "sizes": c.rep.Sizes, "env": c.rep.Env, "unit": "ns since the tracer started",
		})
		if err != nil {
			return nil, err
		}
	}
	return c.rep, nil
}

// runChild re-executes this binary for one workload and reads back its
// report: a process per workload keeps peak_rss_mb the workload's own
// and stops one workload's heap from polluting the next.
func runChild(name string, o options, stdout, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	build := buildDir(root)
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(build, "report-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-json", tmp.Name())
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	var reps []*report
	if err := json.Unmarshal(b, &reps); err != nil || len(reps) != 1 {
		return nil, errors.Join(runErr, fmt.Errorf("%s: child wrote no report", name))
	}
	return reps[0], nil // a failed correctness check is in the report
}

func runAll(o options, stdout, stderr io.Writer) ([]*report, error) {
	var reps []*report
	for _, w := range workloads {
		r, err := runChild(w.Name, o, stdout, stderr)
		if err != nil {
			return reps, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(b, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

func median(samples []float64) float64 {
	_, m, _ := quartiles(samples)
	return m
}

// ---------------------------------------------------------------------
// Comparing runs.

// comparableRuns refuses to compare reports whose inputs differ: a metric
// only means the same thing at the same sizes and seed.
func comparableRuns(a, b *report) error {
	if a.Seed != b.Seed {
		return fmt.Errorf("%s: seeds differ (%d vs %d)", a.Workload, a.Seed, b.Seed)
	}
	if a.Traced != b.Traced {
		return fmt.Errorf("%s: one run is traced, the other is not", a.Workload)
	}
	if len(a.Sizes) != len(b.Sizes) {
		return fmt.Errorf("%s: workload sizes differ (%v vs %v)", a.Workload, a.Sizes, b.Sizes)
	}
	for k, v := range a.Sizes {
		if b.Sizes[k] != v {
			return fmt.Errorf("%s: workload sizes differ (%s=%d vs %d)", a.Workload, k, v, b.Sizes[k])
		}
	}
	return nil
}

// compareReports checks every bounded metric of cur against ref and
// prints one row per (metric, workload). Exact metrics (bound 0) must
// not differ at all.
func compareReports(ref, cur *report, w io.Writer) (bad int, err error) {
	if err := comparableRuns(ref, cur); err != nil {
		return 0, err
	}
	for _, m := range ref.Metrics {
		d := defs[m.Name]
		if d.Kind == kindLayer {
			continue
		}
		n, ok := cur.metric(m.Name)
		if !ok {
			fmt.Fprintf(w, "  %-22s %-18s missing from the second run\n", m.Name, ref.Workload)
			bad++
			continue
		}
		worse := d.worseBy(m.Value, n.Value)
		verdict := "ok"
		switch {
		case d.Bound == 0 && m.Value != n.Value:
			verdict = "DIFFERS (exact metric)"
			bad++
		case worse > d.Bound:
			verdict = fmt.Sprintf("WORSE by more than %.0f%%", d.Bound*100)
			bad++
		}
		fmt.Fprintf(w, "  %-22s %-18s %14.6g -> %14.6g %-8s %+7.2f%% worse  %s\n",
			m.Name, ref.Workload, m.Value, n.Value, m.Unit, worse*100, verdict)
	}
	return bad, nil
}

func compareFiles(oldPath, newPath string, w io.Writer) error {
	olds, err := readReports(oldPath)
	if err != nil {
		return err
	}
	news, err := readReports(newPath)
	if err != nil {
		return err
	}
	bad := 0
	for _, ref := range olds {
		var cur *report
		for _, r := range news {
			if r.Workload == ref.Workload {
				cur = r
			}
		}
		if cur == nil {
			return fmt.Errorf("%s has no run of %s", newPath, ref.Workload)
		}
		n, err := compareReports(ref, cur, w)
		if err != nil {
			return fmt.Errorf("refusing to compare: %w", err)
		}
		bad += n
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) outside their bounds", bad)
	}
	return nil
}

// selfcheck runs two full sets of runs of this same binary back to back
// and checks what the driver checks of a benchmark: per (metric,
// workload), the spread of each set (quartile distance over median,
// across seeds) stays within the bound, the second set's median is not
// worse than the first's by more than the bound, and every exact metric
// reads the same in both sets for each seed. The observed spreads are
// written to bench/out/selfcheck.json, to sit next to the bounds when a
// later reviewer must tell "unchanged" from "unresolved".
func selfcheck(o options, stdout, stderr io.Writer) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if findWorkload(o.workload) == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Unit     string  `json:"unit"`
		Bound    float64 `json:"bound"`
		MedianA  float64 `json:"median_a"`
		MedianB  float64 `json:"median_b"`
		Worse    float64 `json:"b_worse_than_a"`
		SpreadA  float64 `json:"spread_a"`
		SpreadB  float64 `json:"spread_b"`
		OK       bool    `json:"ok"`
	}
	var rows []row
	bad := 0
	var env fingerprint
	for _, name := range names {
		var sets [2][]*report
		for s := range sets {
			for i := 0; i < o.runs; i++ {
				ro := o
				ro.seed, ro.trace = o.seed+uint64(i), 0
				r, err := runChild(name, ro, io.Discard, stderr)
				if err != nil {
					return err
				}
				if !r.Correct {
					return fmt.Errorf("%s seed %d: correctness checks failed: %v", name, ro.seed, r.Failures)
				}
				fmt.Fprintf(stderr, "selfcheck: %s set %c seed %d done\n", name, 'A'+s, ro.seed)
				sets[s] = append(sets[s], r)
				env = r.Env
			}
		}
		for _, m := range sets[0][0].Metrics {
			d := defs[m.Name]
			var va, vb []float64
			exact := true
			for i := range sets[0] {
				a, _ := sets[0][i].metric(m.Name)
				b, _ := sets[1][i].metric(m.Name)
				va, vb = append(va, a.Value), append(vb, b.Value)
				exact = exact && a.Value == b.Value
			}
			spread := func(v []float64) float64 {
				q1, q2, q3 := quartiles(v)
				return ratio(q3-q1, q2)
			}
			rw := row{
				Workload: name, Metric: m.Name, Unit: m.Unit, Bound: d.Bound,
				MedianA: median(va), MedianB: median(vb), SpreadA: spread(va), SpreadB: spread(vb),
			}
			rw.Worse = d.worseBy(rw.MedianA, rw.MedianB)
			switch {
			case d.Bound == 0:
				rw.OK = exact
			case m.Name == "setup_s":
				rw.OK = rw.Worse <= d.Bound // the driver does not bound its spread
			default:
				rw.OK = rw.Worse <= d.Bound && rw.SpreadA <= d.Bound && rw.SpreadB <= d.Bound
			}
			if !rw.OK {
				bad++
			}
			rows = append(rows, rw)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Metric < rows[j].Metric })
	fmt.Fprintf(stdout, "selfcheck: 2 sets x %d runs (seeds %d..%d), %.0f s each\n", o.runs, o.seed, o.seed+uint64(o.runs)-1, o.seconds)
	fmt.Fprintf(stdout, "%-22s %-18s %13s %13s %9s %9s %9s %6s\n", "metric", "workload", "median A", "median B", "B worse", "spread A", "spread B", "bound")
	for _, r := range rows {
		verdict := ""
		if !r.OK {
			verdict = "  FAIL"
		}
		bound := fmt.Sprintf("%.2f", r.Bound)
		if r.Bound == 0 {
			bound = "exact"
		}
		fmt.Fprintf(stdout, "%-22s %-18s %13.6g %13.6g %+8.2f%% %8.2f%% %8.2f%% %6s%s\n",
			r.Metric, r.Workload, r.MedianA, r.MedianB, r.Worse*100, r.SpreadA*100, r.SpreadB*100, bound, verdict)
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(out, "selfcheck.json"), struct {
		Env     fingerprint `json:"env"`
		Seed    uint64      `json:"first_seed"`
		Runs    int         `json:"runs_per_set"`
		Seconds float64     `json:"seconds"`
		Rows    []row       `json:"rows"`
	}{env, o.seed, o.runs, o.seconds, rows}); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d (metric, workload) pair(s) outside their bounds", bad)
	}
	return nil
}
