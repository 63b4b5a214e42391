// Command survey runs the paper's Sec 5 surveys over the synthetic
// Internet: the IP-level survey (diamond metrics, Figs 7-11) and the
// router-level survey (alias resolution effects, Figs 12-14 and Table 3).
//
// Results stream: with -out each pair's record is appended to a JSONL
// file the moment its trace completes, and with -checkpoint the run
// writes an atomic progress file so it can be killed at any point and
// re-run with -resume to continue where it left off, producing output
// byte-identical to an uninterrupted run.
//
// With -atlas every trace is additionally merged into a cross-trace
// topology atlas (internal/atlas) whose snapshot is written atomically
// at the end of the run; cmd/atlas and cmd/atlasd answer queries over
// such snapshots. Adding -atlas-publish-every N also publishes an
// incremental delta snapshot (<atlas>.dNNNNNN) every N records, so a
// serving process can advance mid-run via `atlas compact` + SIGHUP.
//
// Usage:
//
//	survey -level ip -pairs 2000 -out results.jsonl -progress
//	survey -level router -pairs 500 -rounds 10
//	survey -level router -pairs 500 -atlas internet.atlas
//	survey -level ip -pairs 100000 -out r.jsonl -checkpoint r.ckpt
//	survey -level ip -pairs 100000 -out r.jsonl -checkpoint r.ckpt -resume
//
// With -live-dests the surveys above are bypassed and each listed
// destination is traced for real over Linux raw sockets (CAP_NET_RAW
// required), using the batched sendmmsg/recvmmsg wire path:
//
//	survey -live-src 192.0.2.10 -live-dests 198.51.100.1,198.51.100.2
//
// With -join the process becomes a fleet runner instead: it claims
// leased work units from a cmd/surveyd coordinator, traces each unit's
// span of the survey, and ships the records back. The survey plan comes
// from the coordinator, so only concurrency flags apply locally:
//
//	survey -join http://coordinator:8460 -runner-id runner-1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/dispatch"
	"mmlpt/internal/experiments"
	"mmlpt/internal/prior"
	"mmlpt/internal/progress"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

func main() {
	var (
		level        = flag.String("level", "ip", "survey level: ip or router")
		pairs        = flag.Int("pairs", 1000, "number of source-destination pairs")
		seed         = flag.Uint64("seed", 1, "random seed")
		phi          = flag.Int("phi", 2, "MDA-Lite meshing budget")
		rounds       = flag.Int("rounds", 10, "alias rounds (router level)")
		workers      = flag.Int("workers", 0, "concurrent trace workers (0 = GOMAXPROCS, 1 = serial; results are identical)")
		figs         = flag.Bool("figs", false, "also print full figure series")
		out          = flag.String("out", "", "stream per-trace survey records to this JSONL file as pairs complete")
		atlasOut     = flag.String("atlas", "", "merge every trace into a cross-trace atlas and write its snapshot to this file")
		atlasShards  = flag.Int("atlas-shards", 0, "atlas ingestion shards (0 = default; snapshot bytes are identical for every value)")
		atlasWorkers = flag.Int("atlas-workers", 0, "atlas merge workers for snapshot writes (0 = GOMAXPROCS, 1 = serial; snapshot bytes are identical for every value)")
		atlasEvery   = flag.Int("atlas-publish-every", 0, "with -atlas: also publish an incremental delta snapshot (<atlas>.dNNNNNN) every N records, for live serving via atlas compact + atlasd")
		priorPath    = flag.String("prior", "", "seed traces from this atlas snapshot: pairs the atlas has seen probe only to their confirmation budget (ip level, switches the tracer to MDA-Lite)")
		ckpt         = flag.String("checkpoint", "", "write an atomic progress checkpoint to this file")
		every        = flag.Int("checkpoint-every", survey.DefaultCheckpointEvery, "records between checkpoints")
		resume       = flag.Bool("resume", false, "resume from the checkpoint, skipping completed pairs")
		prog         = flag.Bool("progress", false, "report pair/probe rates to stderr while running")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")

		join     = flag.String("join", "", "coordinator URL: run as a fleet runner, claiming work units from a surveyd instead of running a survey locally")
		runnerID = flag.String("runner-id", "", "runner name in leases and fleet status (with -join; default host:pid)")
		maxUnits = flag.Int("max-units", 0, "with -join: exit after shipping this many units (0 = until the survey is done)")

		liveDests   = flag.String("live-dests", "", "comma-separated destination IPs: trace live over raw sockets (Linux, CAP_NET_RAW) instead of the simulator")
		liveSrc     = flag.String("live-src", "", "source IP stamped into live probes (required with -live-dests)")
		liveBatch   = flag.Int("live-batch", 64, "live mode: max packets per sendmmsg/recvmmsg call")
		liveTimeout = flag.Duration("live-timeout", 2*time.Second, "live mode: per-wave reply timeout")
		liveRetries = flag.Int("live-retries", 2, "live mode: re-sends per unanswered probe")
	)
	flag.Parse()

	if *join != "" {
		// Fleet-runner mode: the survey plan (level, pairs, seed, ...)
		// comes from the coordinator's Spec, not from local flags.
		id := *runnerID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "runner"
			}
			id = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		err := dispatch.RunRunner(dispatch.RunnerConfig{
			Coordinator: *join,
			ID:          id,
			Workers:     *workers,
			MaxUnits:    *maxUnits,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *liveDests != "" {
		if *liveSrc == "" {
			fmt.Fprintln(os.Stderr, "-live-dests requires -live-src")
			os.Exit(2)
		}
		err := runLive(liveOptions{
			Src: *liveSrc, Dests: *liveDests,
			Phi: *phi, Seed: *seed,
			Batch: *liveBatch, Timeout: *liveTimeout, Retries: *liveRetries,
			Figs: *figs,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Usage validation happens before profiling starts, so usage-error
	// exits never leave a truncated CPU profile behind.
	outPath := *out
	if *resume && *ckpt == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint")
		os.Exit(2)
	}
	if *resume && outPath == "" {
		// Without the record log there is nothing to replay: the summary
		// would silently cover only the resumed tail.
		fmt.Fprintln(os.Stderr, "-resume requires -out (the JSONL record log is what resume replays)")
		os.Exit(2)
	}
	switch *level {
	case "ip", "router":
	default:
		fmt.Fprintf(os.Stderr, "unknown level %q (ip or router)\n", *level)
		os.Exit(2)
	}
	if *priorPath != "" && *level != "ip" {
		fmt.Fprintln(os.Stderr, "-prior applies to the ip-level survey only")
		os.Exit(2)
	}

	// flushProfiles finalizes any active profiles. It is deferred for the
	// normal return path and called by fail() before os.Exit, so a run
	// that errors after the survey still leaves usable profiles behind.
	var cpuFile *os.File
	profilesDone := false
	flushProfiles := func() {
		if profilesDone {
			return
		}
		profilesDone = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap before sampling
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	defer flushProfiles()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cpuFile = f
	}

	cfg := experiments.SurveyConfig{
		Pairs: *pairs, Seed: *seed, Phi: *phi, Rounds: *rounds, Workers: *workers,
		Checkpoint: *ckpt, CheckpointEvery: *every, Resume: *resume,
	}
	if *priorPath != "" {
		svc, err := serve.Open(*priorPath, serve.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening prior snapshot: %v\n", err)
			os.Exit(1)
		}
		ix, err := prior.FromService(svc)
		svc.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "indexing prior snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "prior: %d pairs indexed from %s\n", ix.Len(), *priorPath)
		cfg.Prior = ix
	}
	var jsonlSink *survey.JSONLSink
	var agg *survey.AggregateSink
	if outPath != "" {
		jsonlSink = survey.NewJSONLSink(outPath)
		agg = survey.NewAggregateSink()
		cfg.Sinks = []survey.Sink{jsonlSink, agg}
	}
	var atlasSink *survey.AtlasSink
	if *atlasOut != "" {
		atlasSink = survey.NewAtlasSink(atlas.Options{Shards: *atlasShards, MergeWorkers: *atlasWorkers})
		if *atlasEvery > 0 {
			atlasSink.PublishDeltas(*atlasOut, *atlasEvery)
		}
		cfg.Sinks = append(cfg.Sinks, atlasSink)
	} else if *atlasEvery > 0 {
		fmt.Fprintln(os.Stderr, "-atlas-publish-every requires -atlas")
		os.Exit(2)
	}

	var stopProgress chan struct{}
	if *prog {
		cfg.Progress = progress.NewSurvey()
		stopProgress = make(chan struct{})
		go func() {
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fmt.Fprintln(os.Stderr, cfg.Progress.Snapshot())
				case <-stopProgress:
					return
				}
			}
		}()
	}

	fail := func(err error) {
		if err == nil {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		flushProfiles() // os.Exit skips defers; keep partial-run profiles usable
		os.Exit(1)
	}
	finish := func(res *survey.Result) {
		if stopProgress != nil {
			close(stopProgress)
			fmt.Fprintln(os.Stderr, cfg.Progress.Snapshot())
		}
		if jsonlSink != nil {
			fail(jsonlSink.Close())
			fmt.Printf("wrote %d trace records to %s (%d bytes)\n",
				agg.Agg.Records, outPath, jsonlSink.Offset())
		}
		if atlasSink != nil {
			fail(atlasSink.Close()) // flush a final partial delta, if publishing
			// The header of the file just written already carries the
			// stat totals.
			fail(atlasSink.Atlas.Save(*atlasOut))
			r, err := traceio.OpenAtlasFile(*atlasOut)
			fail(err)
			st := atlas.HeaderStats(r.Header())
			fail(r.Close())
			fmt.Printf("wrote atlas snapshot to %s (%s)\n", *atlasOut, st)
			if n := len(atlasSink.Published()); n > 0 {
				fmt.Printf("published %d atlas deltas alongside %s\n", n, *atlasOut)
			}
		}
		if *resume && agg != nil {
			// The in-memory result covers only the pairs this process
			// traced; the record aggregate, replayed from the JSONL log,
			// covers the whole survey.
			fmt.Printf("resumed: traced %d remaining pairs\n", len(res.Outcomes))
			fmt.Print(agg.Agg.Summary())
		} else {
			fmt.Print(res.Summary())
		}
	}

	switch *level {
	case "ip":
		res, err := experiments.IPSurvey(cfg)
		fail(err)
		finish(res)
		if *figs {
			if *resume {
				fmt.Fprintln(os.Stderr, "warning: -figs on a resumed run covers only the pairs traced in this process")
			}
			fmt.Println(experiments.FormatFig2(res))
			fmt.Println(experiments.FormatFig7(res))
			fmt.Println(experiments.FormatFig8(res))
			fmt.Println(experiments.FormatFig9(res))
			fmt.Println(experiments.FormatFig10(res))
			fmt.Println(experiments.FormatFig11(res))
		}
	case "router":
		res, recs, err := experiments.RouterSurvey(cfg)
		fail(err)
		finish(res)
		if *resume {
			fmt.Fprintln(os.Stderr, "warning: Table 3 on a resumed run covers only the pairs traced in this process")
		}
		fmt.Println(experiments.FormatTable3(recs))
		if *figs {
			if *resume {
				fmt.Fprintln(os.Stderr, "warning: -figs on a resumed run covers only the pairs traced in this process")
			}
			fmt.Println(experiments.FormatFig12(recs))
			fmt.Println(experiments.FormatFig13(recs))
			fmt.Println(experiments.FormatFig14(recs))
		}
	}
}

// liveOptions carries the -live-* flags to the platform-specific live
// runner: runLive in live_linux.go traces each destination over raw
// sockets; other platforms reject live mode (live_other.go).
type liveOptions struct {
	Src, Dests string
	Phi        int
	Seed       uint64
	Batch      int
	Retries    int
	Timeout    time.Duration
	Figs       bool
}
