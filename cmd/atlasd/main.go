// Command atlasd serves atlas queries over HTTP: the topology service
// view of a cross-trace snapshot written by cmd/survey -atlas. It opens
// the snapshot through internal/atlas/serve — indexed (v2) snapshots
// are decoded shard-by-shard on demand, never whole — and answers:
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
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmlpt/internal/atlas/serve"
)

func main() {
	var (
		snapshot = flag.String("snapshot", "", "atlas snapshot to serve (required)")
		listen   = flag.String("listen", ":8430", "HTTP listen address")
		cache    = flag.Int("cache", 0, "decoded shards kept resident per generation (0 = default)")
	)
	flag.Parse()
	if *snapshot == "" {
		fmt.Fprintln(os.Stderr, "usage: atlasd -snapshot internet.atlas [-listen :8430] [-cache N]")
		os.Exit(2)
	}

	svc, err := serve.Open(*snapshot, serve.Options{CacheShards: *cache})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer svc.Close()

	srv := &http.Server{
		Addr:              *listen,
		Handler:           newMux(svc),
		ReadHeaderTimeout: 5 * time.Second,
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := svc.Swap(*snapshot); err != nil {
				fmt.Fprintf(os.Stderr, "atlasd: swap failed, keeping current generation: %v\n", err)
				continue
			}
			st, _ := svc.Stats()
			fmt.Fprintf(os.Stderr, "atlasd: swapped in %s (%d nodes, %d routers)\n", *snapshot, st.Nodes, st.Routers)
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

	st, err := svc.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "atlasd: serving %s (%d nodes, %d routers, %d diamonds) on %s\n",
		*snapshot, st.Nodes, st.Routers, st.Diamonds, *listen)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
}
