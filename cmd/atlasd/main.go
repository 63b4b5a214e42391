// Command atlasd serves atlas queries over HTTP: the topology service
// view of a cross-trace snapshot written by cmd/survey -atlas. It opens
// the snapshot through internal/atlas/serve — a shard is decoded and
// validated whole the first time a query touches it, and after that
// each query reads the one line it needs — and answers:
//
//	GET /healthz            service liveness
//	GET /v1/stats           merged-content counts
//	GET /v1/census          cross-pair diamond census
//	GET /v1/router/{addr}   the router (alias component) owning addr
//	GET /v1/addr/{addr}     provenance: which pairs saw addr, at which hops
//
// SIGHUP atomically swaps in the current contents of -snapshot (e.g.
// after `atlas compact` merged newly published survey deltas); in-flight
// queries finish on the old generation.
//
// Usage:
//
//	atlasd -snapshot internet.atlas -listen :8430
//	curl localhost:8430/v1/router/10.0.0.7
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/httpx"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the command behind main: it parses args, serves until SIGINT
// or SIGTERM and returns the exit code — 2 for a usage error, reported
// before the snapshot is opened; 1 for a runtime one, such as a
// snapshot that does not open or a -listen address it cannot bind.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("atlasd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		snapshot = fs.String("snapshot", "", "atlas snapshot to serve (required)")
		listen   = fs.String("listen", ":8430", "HTTP listen address (port 0 picks a free port; the bound address is printed)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *snapshot == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: atlasd -snapshot internet.atlas [-listen :8430]")
		return 2
	}

	svc, err := serve.Open(*snapshot, serve.Options{})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer svc.Close()
	st, err := svc.Stats()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "atlasd: %v\n", err)
		return 1
	}
	srv := httpx.NewServer(newMux(svc))

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := svc.Swap(*snapshot); err != nil {
				fmt.Fprintf(stderr, "atlasd: swap failed, keeping current generation: %v\n", err)
				continue
			}
			st, _ := svc.Stats()
			fmt.Fprintf(stderr, "atlasd: swapped in %s (%d nodes, %d routers)\n", *snapshot, st.Nodes, st.Routers)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	fmt.Fprintf(stderr, "atlasd: serving %s (%d nodes, %d routers, %d diamonds) on %s\n",
		*snapshot, st.Nodes, st.Routers, st.Diamonds, l.Addr())
	if err := srv.Serve(l); err != http.ErrServerClosed {
		fmt.Fprintln(stderr, err)
		return 1
	}
	<-done
	return 0
}
