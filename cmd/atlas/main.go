// Command atlas answers queries over a cross-trace topology atlas
// snapshot, the file cmd/survey -atlas writes: the merged multilevel
// view of every traced pair, with aggregated router identities, the
// cross-pair diamond census, and per-address provenance. Queries go
// through the same internal/atlas/serve layer as the atlasd HTTP
// service, so point lookups decode only the shards they touch.
//
// Usage:
//
//	atlas stats internet.atlas             # counts + aggregated router-size CDF (Fig 12, atlas variant)
//	atlas routers internet.atlas           # every aggregated router, one line each
//	atlas router 10.0.0.7 internet.atlas   # the router component owning one address
//	atlas census internet.atlas            # distinct diamonds across all pairs
//	atlas addr 10.0.0.7 internet.atlas     # which pairs saw the address, at which hops
//	atlas compact -o full.atlas base.atlas base.atlas.d*  # merge base + deltas
//	atlas verify internet.atlas            # check every structural invariant of the file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/experiments"
	"mmlpt/internal/packet"
	"mmlpt/internal/traceio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage:
  atlas stats snapshot.atlas             counts + aggregated router-size CDF
  atlas routers snapshot.atlas           every aggregated router
  atlas router A.B.C.D snapshot.atlas    the router component owning one address
  atlas census snapshot.atlas            cross-pair diamond census
  atlas addr A.B.C.D snapshot.atlas      provenance of one address
  atlas compact -o out.atlas in.atlas [in2.atlas ...]
                                         merge snapshots/deltas into one
  atlas verify snapshot.atlas            check the file's structural invariants
`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	switch args[0] {
	case "stats", "routers", "router", "census", "addr":
		return runQuery(args[0], args[1:], stdout, stderr)
	case "compact":
		return runCompact(args[1:], stdout, stderr)
	case "verify":
		return runVerify(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usageText)
		return 0
	}
	fmt.Fprint(stderr, usageText)
	return 2
}

// runQuery handles the read subcommands, all backed by one serve
// session over the snapshot.
func runQuery(cmd string, args []string, stdout, stderr io.Writer) int {
	wantAddr := cmd == "router" || cmd == "addr"
	want := 1
	if wantAddr {
		want = 2
	}
	if len(args) != want {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	var q packet.Addr
	if wantAddr {
		var err error
		if q, err = packet.ParseCanonicalAddr(args[0]); err != nil {
			fmt.Fprintf(stderr, "atlas %s: %v\n", cmd, err)
			return 2
		}
	}
	svc, err := serve.Open(args[len(args)-1], serve.Options{})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer svc.Close()
	if err := query(cmd, q, svc, stdout); err != nil {
		fmt.Fprintf(stderr, "atlas %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

func query(cmd string, q packet.Addr, svc *serve.Service, stdout io.Writer) error {
	switch cmd {
	case "stats":
		return printStats(svc, stdout)
	case "routers":
		groups, err := svc.Routers()
		if err != nil {
			return err
		}
		for _, g := range groups {
			printRouter(stdout, g)
		}
		return nil
	case "router":
		g, err := svc.Router(q)
		if err != nil {
			return err
		}
		printRouter(stdout, g)
		return nil
	case "census":
		ds, err := svc.DiamondCensus()
		if err != nil {
			return err
		}
		printCensus(stdout, ds)
		return nil
	case "addr":
		obs, err := svc.Provenance(q)
		if err != nil {
			return err
		}
		for _, o := range obs {
			fmt.Fprintf(stdout, "%s pair %d hop %d\n", q, o.Pair, o.Hop)
		}
		return nil
	}
	return fmt.Errorf("unknown query %q", cmd)
}

func printStats(svc *serve.Service, stdout io.Writer) error {
	st, err := svc.Stats()
	if err != nil {
		return err
	}
	groups, err := svc.Routers()
	if err != nil {
		return err
	}
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g)
	}
	fmt.Fprint(stdout, experiments.FormatFig12Sizes(st, sizes))
	return nil
}

func printRouter(w io.Writer, g []packet.Addr) {
	fmt.Fprintf(w, "router[%d]", len(g))
	for _, addr := range g {
		fmt.Fprintf(w, " %s", addr)
	}
	fmt.Fprintln(w)
}

func printCensus(w io.Writer, ds []traceio.AtlasDiamond) {
	fmt.Fprintln(w, "# div conv encounters pairs max_width max_length")
	for _, d := range ds {
		fmt.Fprintf(w, "%s %s %d %d %d %d\n", d.Div, d.Conv, d.Count, len(d.Pairs), d.MaxWidth, d.MaxLength)
	}
}

func runCompact(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atlas compact", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output snapshot path (required)")
	workers := fs.Int("workers", 0, "merge workers for the streaming compaction (0 = GOMAXPROCS, 1 = serial; output bytes are identical for every value)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: atlas compact -o out.atlas in.atlas [in2.atlas ...]")
		return 2
	}
	inputs := fs.Args()
	progress := func(format string, args ...any) {
		fmt.Fprintf(stderr, "compact: "+format+"\n", args...)
	}
	opt := atlas.Options{MergeWorkers: *workers}
	if err := atlas.CompactWithProgress(*out, inputs[0], inputs[1:], opt, progress); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The header carries the totals; no need to re-decode the file we
	// just wrote only to count its sections.
	r, err := traceio.OpenAtlasFile(*out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer r.Close()
	fmt.Fprintf(stdout, "compacted %d snapshots into %s (%s)\n", len(inputs), *out, atlas.HeaderStats(r.Header()))
	return 0
}

// runVerify checks every structural invariant of a snapshot file
// (traceio.AtlasReader.Verify): exit 1 naming the failing check, exit 0
// printing the header stats.
func runVerify(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	r, err := traceio.OpenAtlasFile(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "atlas verify: %v\n", err)
		return 1
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		fmt.Fprintf(stderr, "atlas verify: %s: %v\n", args[0], err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: ok (%s)\n", args[0], atlas.HeaderStats(r.Header()))
	return 0
}
