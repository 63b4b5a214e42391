package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the machine and build a report was measured
// on. Two reports are comparable only when their workload sizes and
// seed agree (see compareReports); the rest is context for the reader.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitCommit  string `json:"git_commit"`
}

func readFingerprint(root string) fingerprint {
	fp := fingerprint{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		fp.GitCommit = strings.TrimSpace(string(out))
	}
	return fp
}

// report is everything one run of one workload produced.
type report struct {
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Env      fingerprint `json:"env"`
	// Sizes are the workload's input sizes; reports with different
	// sizes are not comparable.
	Sizes map[string]int `json:"sizes"`
	// Load states the load generator: every workload is a closed loop.
	Load string `json:"load"`
	// Loopback is set when traffic crossed the host's loopback
	// interface (real HTTP between processes or goroutines); no
	// workload crosses a real link.
	Loopback  bool     `json:"loopback_http"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
	// CostMap is the traced survey runs' per-stage view of one pair.
	CostMap   []string `json:"cost_map,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

func (r *report) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runCtx is what a workload gets: its knobs, its scratch space and the
// report it fills in.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// tiny shrinks every workload to smoke-test size (bench_test.go).
	tiny  bool
	procs int
	// root is the module root (where `go build ./cmd/atlasd` runs);
	// scratch is this run's temp dir, removed on exit; binDir caches
	// built binaries between runs.
	root, scratch, binDir string
	rep                   *report
	tr                    *tracer
	// passRSS holds one peak-RSS sample per timed pass (see beginPass).
	passRSS []float64
}

// beginPass prepares a timed pass, untimed: the heap is collected and
// returned to the OS, as in a freshly started process, and the kernel's
// resident-set high-water mark is reset so that endPass reads the peak
// of this pass alone. peak_rss_mb is then a median over passes instead
// of one maximum over the whole run, which a single late GC cycle can
// move by a third on the allocation-heavy workloads.
func (c *runCtx) beginPass() {
	debug.FreeOSMemory()
	// Linux: writing 5 resets VmHWM. Where that fails the samples fall
	// back to the monotone whole-process maximum.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (c *runCtx) endPass() {
	c.passRSS = append(c.passRSS, selfPeakRSSMB())
}

// pick returns full unless the run is a tiny smoke test.
func (c *runCtx) pick(full, tiny int) int {
	if c.tiny {
		return tiny
	}
	return full
}

// put reports a metric from its samples (median and spread).
func (c *runCtx) put(name string, samples ...float64) {
	for _, s := range samples {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			c.failf("metric %s has a non-finite sample", name)
			return
		}
	}
	c.rep.Metrics = append(c.rep.Metrics, summarize(name, samples))
}

// failf records a failed correctness check; the run then reports
// correct=false and exits non-zero.
func (c *runCtx) failf(format string, args ...any) {
	c.rep.Failures = append(c.rep.Failures, fmt.Sprintf(format, args...))
}

// attempted counts operations checked and how many of them failed.
func (c *runCtx) attempted(n, failed int) {
	c.rep.Attempted += int64(n)
	c.rep.Failed += int64(failed)
}

// finish derives the metrics every workload shares and settles the
// verdict.
func (c *runCtx) finish() {
	r := c.rep
	if !c.traced {
		if _, ok := r.metric("peak_rss_mb"); !ok {
			c.put("peak_rss_mb", c.passRSS...)
		}
		share := 0.0
		if r.Attempted > 0 {
			share = float64(r.Failed) / float64(r.Attempted)
		}
		c.put("failed_share", share)
	}
	if r.Attempted == 0 {
		c.failf("no operation was attempted")
	}
	r.Correct = r.Failed == 0 && len(r.Failures) == 0
}

// selfPeakRSSMB is this process's resident-set high-water mark since
// the last reset (VmHWM), or since it started where /proc is missing.
func selfPeakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// contractLine renders the one-line JSON result the driver reads: every
// end_to_end metric of an untraced run, every per_layer metric of a
// traced one. A layer the workload does not exercise reads 0.
func (r *report) contractLine() string {
	list := endToEndDefs
	if r.Traced {
		list = layerDefs
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(list))
	for _, d := range list {
		m, _ := r.metric(d.Name)
		ms[d.Name] = mv{Value: m.Value, Unit: d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, attempted, r.Failed, ms})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// print writes the human-readable table.
func (r *report) print(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.Traced {
		mode = "per-layer (tracing on; end-to-end metrics are never taken from this run)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "   %s\n", r.Why)
	fmt.Fprintf(w, "   env: %s %s/%s, %q, nproc %d, GOMAXPROCS %d, commit %s\n",
		r.Env.GoVersion, r.Env.GOOS, r.Env.GOARCH, r.Env.CPUModel, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GitCommit)
	keys := make([]string, 0, len(r.Sizes))
	for k := range r.Sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sizes []string
	for _, k := range keys {
		sizes = append(sizes, fmt.Sprintf("%s=%d", k, r.Sizes[k]))
	}
	fmt.Fprintf(w, "   load: %s; loopback HTTP: %t; sizes: %s\n", r.Load, r.Loopback, strings.Join(sizes, " "))
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "   %s\n", m)
	}
	for _, line := range r.CostMap {
		fmt.Fprintf(w, "   %s\n", line)
	}
	fmt.Fprintf(w, "   operations: %d attempted, %d failed; correct: %t\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED CHECK: %s\n", f)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "   spans written to %s\n", r.TraceFile)
	}
}

// fileSHA returns the hex SHA-256 and size of a file: the byte-identity
// checks compare digests instead of holding outputs in memory.
func fileSHA(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// mallocs reads the cumulative heap allocation counters.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
