// Command surveyd coordinates a distributed survey: it shards the
// deterministic (src,dst) pair space into leased work units, hands them
// to runner processes (`survey -join`) over HTTP, persists shipped
// shards durably, reassigns units whose runners die, meters the fleet's
// probe rate per destination /24 prefix, and — once every unit has
// shipped — merges the shards into a record log and atlas snapshot
// byte-identical to a single-machine `survey` run.
//
//	GET  /healthz     service liveness
//	GET  /v1/status   units, records, leases, per-runner table
//	POST /v1/claim    lease the next unclaimed work unit
//	POST /v1/renew    heartbeat a lease
//	POST /v1/ship     deliver a unit's record log
//	POST /v1/budget   acquire probe tokens for a destination prefix
//
// The work directory holds one shard file per shipped unit plus an
// atomically-rewritten manifest; restarting surveyd with the same flags
// and -resume re-traces only units that never durably shipped.
//
// Usage:
//
//	surveyd -level ip -pairs 5000 -out fleet.jsonl -atlas fleet.atlas -dir work/
//	survey -join http://coordinator:8460 -runner-id runner-1   (xN machines)
//
// surveyd exits 0 once the merge completes; it lingers briefly so
// runners polling for work hear "done" instead of a connection error.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"mmlpt/internal/dispatch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, coordinates the
// survey and returns the exit code — 2 for a usage error, 1 for a
// runtime one. A usage error, or a -listen address it cannot bind,
// leaves no file behind.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("surveyd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specOf := dispatch.SpecFlags(fs)
	var (
		dir         = fs.String("dir", "", "work directory for shards and the manifest (required)")
		out         = fs.String("out", "", "write the merged survey record log (JSONL) here")
		atlasOut    = fs.String("atlas", "", "write the merged atlas snapshot here")
		unitSize    = fs.Int("unit-size", dispatch.DefaultUnitSize, "survey pairs per work unit")
		leaseTTL    = fs.Duration("lease-ttl", dispatch.DefaultLeaseTTL, "lease duration; runners heartbeat at a third of this")
		budgetRate  = fs.Float64("budget-rate", 0, "fleet-wide probe ceiling per destination /24 prefix, probes/second (0 = unmetered)")
		budgetBurst = fs.Float64("budget-burst", 0, "probe budget burst depth (0 = same as -budget-rate)")
		listen      = fs.String("listen", ":8460", "HTTP listen address (port 0 picks a free port; the bound address is printed)")
		resume      = fs.Bool("resume", false, "restore shipped units from the manifest in -dir")
		prog        = fs.Bool("progress", false, "report fleet progress to stderr while running")
		linger      = fs.Duration("linger", 2*time.Second, "serve this long after the merge so polling runners hear done")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *dir == "" {
		fmt.Fprintln(stderr, "usage: surveyd -dir work/ [-level ip] [-pairs N] [-out merged.jsonl] [-atlas merged.atlas] [-listen :8460]")
		return 2
	}
	spec, err := specOf()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *out == "" && *atlasOut == "" {
		fmt.Fprintln(stderr, "surveyd needs at least one of -out or -atlas: a survey with no merged output is wasted probing")
		return 2
	}
	// A negative value would silently mean what 0 does.
	usage := ""
	switch {
	case *unitSize < 0:
		usage = fmt.Sprintf("-unit-size %d: want 0 (the default, %d) or more", *unitSize, dispatch.DefaultUnitSize)
	case *leaseTTL < 0:
		usage = fmt.Sprintf("-lease-ttl %v: want 0 (the default, %v) or more", *leaseTTL, dispatch.DefaultLeaseTTL)
	case *budgetRate < 0:
		usage = fmt.Sprintf("-budget-rate %g: want 0 (unmetered) or more", *budgetRate)
	case *budgetBurst < 0:
		usage = fmt.Sprintf("-budget-burst %g: want 0 (the -budget-rate) or more", *budgetBurst)
	case *linger < 0:
		usage = fmt.Sprintf("-linger %v: want 0 (exit at once) or more", *linger)
	}
	if usage != "" {
		fmt.Fprintln(stderr, usage)
		return 2
	}

	// Bind before the coordinator touches -dir: a busy address fails
	// here, with nothing written.
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "surveyd: %v\n", err)
		return 1
	}
	defer l.Close()

	spec.BudgetRate, spec.BudgetBurst = *budgetRate, *budgetBurst
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
		Spec: spec,
		Dir:  *dir, OutJSONL: *out, AtlasPath: *atlasOut,
		UnitSize: *unitSize,
		LeaseTTL: *leaseTTL,
		Resume:   *resume,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	srv := &http.Server{
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	defer srv.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	if *prog {
		go func() {
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fmt.Fprintln(stderr, coord.Status())
				case <-coord.Done():
					return
				}
			}
		}()
	}

	st := coord.Status()
	fmt.Fprintf(stderr, "surveyd: coordinating %d units (%d pairs, level %s) on %s\n",
		st.Units, spec.Pairs, spec.Level, l.Addr())

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "surveyd: serve: %v\n", err)
		return 1
	case <-coord.Done():
	}
	if err := coord.Err(); err != nil {
		fmt.Fprintf(stderr, "surveyd: merge: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, coord.Status())
	if *out != "" {
		fmt.Fprintf(stdout, "wrote merged record log to %s\n", *out)
	}
	if *atlasOut != "" {
		fmt.Fprintf(stdout, "wrote merged atlas snapshot to %s\n", *atlasOut)
	}
	fmt.Fprint(stdout, coord.Summary())
	// Keep answering /v1/claim with "done" briefly so runners exit
	// cleanly rather than erroring on a vanished coordinator.
	time.Sleep(*linger)
	return 0
}
