// Command survey runs the paper's Sec 5 surveys over the synthetic
// Internet: the IP-level survey (diamond metrics, Figs 7-11) and the
// router-level survey (alias resolution effects, Figs 12-14 and Table 3).
//
// Results stream: with -out each pair's record is appended to a JSONL
// file the moment its trace completes. With -checkpoint DIR the run
// keeps its progress the way cmd/surveyd keeps a fleet's: DIR holds a
// manifest and one shard of records per unit of 64 jobs, each written
// the moment the unit is traced, and -out and -atlas are merged from the
// shards at the end. Such a run can be killed at any point and re-run
// with -resume to continue from its last durable unit, producing output
// byte-identical to an uninterrupted run.
//
// With -atlas every trace is additionally merged into a cross-trace
// topology atlas (internal/atlas) whose snapshot is written atomically
// at the end of the run; cmd/atlas and cmd/atlasd answer queries over
// such snapshots. Adding -atlas-publish-every N (not with -checkpoint)
// also publishes an incremental delta snapshot (<atlas>.dNNNNNN) every N
// records, so a serving process can advance mid-run via `atlas compact`
// + SIGHUP.
//
// Usage:
//
//	survey -level ip -pairs 2000 -out results.jsonl -progress
//	survey -level router -pairs 500 -rounds 10
//	survey -level router -pairs 500 -atlas internet.atlas
//	survey -level ip -pairs 100000 -out r.jsonl -checkpoint r.work
//	survey -level ip -pairs 100000 -out r.jsonl -checkpoint r.work -resume
//
// With -live-dests the surveys above are bypassed and each listed
// destination is traced for real over Linux raw sockets (CAP_NET_RAW
// required), using the batched sendmmsg/recvmmsg wire path; only
// -live-src, -phi, -seed and -figs apply:
//
//	survey -live-src 192.0.2.10 -live-dests 198.51.100.1,198.51.100.2
//
// With -join the process becomes a fleet runner instead: it claims
// leased work units from a cmd/surveyd coordinator, traces each unit's
// span of the survey, and ships the records back. The survey plan comes
// from the coordinator, so only -runner-id, -max-units and -workers
// apply locally; any other flag set beside -join or -live-dests is a
// usage error:
//
//	survey -join http://coordinator:8460 -runner-id runner-1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected; it returns
// the exit code: 2 for usage errors, 1 for runtime errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("survey", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specOf := dispatch.SpecFlags(fs)
	var (
		workers    = fs.Int("workers", 0, "concurrent trace workers (0 = GOMAXPROCS, 1 = serial; results are identical)")
		figs       = fs.Bool("figs", false, "also print full figure series")
		out        = fs.String("out", "", "stream per-trace survey records to this JSONL file as pairs complete")
		atlasOut   = fs.String("atlas", "", "merge every trace into a cross-trace atlas and write its snapshot to this file")
		atlasEvery = fs.Int("atlas-publish-every", 0, "with -atlas, not -checkpoint: also publish an incremental delta snapshot (<atlas>.dNNNNNN) every N records, for live serving via atlas compact + atlasd")
		priorPath  = fs.String("prior", "", "seed traces from this atlas snapshot: pairs the atlas has seen probe only to their confirmation budget (ip level, switches the tracer to MDA-Lite)")
		ckpt       = fs.String("checkpoint", "", fmt.Sprintf("keep durable progress in this directory: a manifest plus one record shard per %d jobs, merged into -out and -atlas at the end", dispatch.DefaultUnitSize))
		resume     = fs.Bool("resume", false, "with -checkpoint: keep the units the directory holds durable and trace only the rest")
		prog       = fs.Bool("progress", false, "report pair/probe rates to stderr while running")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")

		join     = fs.String("join", "", "coordinator URL: run as a fleet runner, claiming work units from a surveyd instead of running a survey locally")
		runnerID = fs.String("runner-id", "", "runner name in leases and fleet status (with -join; default host:pid)")
		maxUnits = fs.Int("max-units", 0, "with -join: exit after shipping this many units (0 = until the survey is done)")

		liveDests = fs.String("live-dests", "", "comma-separated destination IPs: trace live over raw sockets (Linux, CAP_NET_RAW) instead of the simulator")
		liveSrc   = fs.String("live-src", "", "source IP stamped into live probes (required with -live-dests)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := specOf()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// A negative count would silently mean what 0 does, and a flag its
	// mode does not read would silently do nothing.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := ""
	switch {
	case *atlasEvery < 0:
		usage = fmt.Sprintf("-atlas-publish-every %d: want 0 (never) or more", *atlasEvery)
	case *maxUnits < 0:
		usage = fmt.Sprintf("-max-units %d: want 0 (no limit) or more", *maxUnits)
	case *join == "" && *runnerID != "":
		usage = "-runner-id requires -join"
	case *join == "" && *maxUnits != 0:
		usage = "-max-units requires -join"
	case *liveDests != "" && *liveSrc == "":
		usage = "-live-dests requires -live-src"
	case *liveSrc != "" && *liveDests == "":
		usage = "-live-src requires -live-dests"
	case *join != "":
		usage = unreadFlags(set, "join", "runner-id", "max-units", "workers")
	case *liveDests != "":
		usage = unreadFlags(set, "live-dests", "live-src", "phi", "seed", "figs")
	}
	if usage != "" {
		fmt.Fprintln(stderr, usage)
		return 2
	}

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
				fmt.Fprintf(stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	if *liveDests != "" {
		err := runLive(liveOptions{
			Out: stdout, Src: *liveSrc, Dests: *liveDests,
			Phi: spec.Phi, Seed: spec.Seed, Figs: *figs,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	// Usage validation happens before profiling starts, so usage-error
	// exits never leave an empty CPU profile behind.
	switch {
	case *resume && *ckpt == "":
		usage = "-resume requires -checkpoint"
	case *priorPath != "" && spec.Level != "ip":
		usage = "-prior applies to the ip-level survey only"
	case *atlasEvery > 0 && *atlasOut == "":
		usage = "-atlas-publish-every requires -atlas"
	case *atlasEvery > 0 && *ckpt != "":
		// A checkpointed run builds its atlas from the shards once every
		// unit is durable, so there is no atlas mid-run to publish from.
		usage = "-atlas-publish-every does not apply with -checkpoint: the atlas is built from the shards at the end"
	case *ckpt != "" && isFile(*ckpt):
		usage = fmt.Sprintf("-checkpoint %s is a file, perhaps an older survey's checkpoint, which cannot be resumed; "+
			"-checkpoint now names a directory holding manifest.json and one unit-NNNNNN.jsonl shard per %d jobs",
			*ckpt, dispatch.DefaultUnitSize)
	}
	if usage != "" {
		fmt.Fprintln(stderr, usage)
		return 2
	}

	// Profiles are finalized by defers, so every exit from here on —
	// errors included — leaves them usable. The heap profile is written
	// last, after the CPU profile stops.
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile, stderr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	err = func() error {
		plan := experiments.SurveyConfig{Pairs: spec.Pairs, Seed: spec.Seed, Phi: spec.Phi, Rounds: spec.Rounds}
		if *priorPath != "" {
			svc, err := serve.Open(*priorPath, serve.Options{})
			if err != nil {
				return fmt.Errorf("opening prior snapshot: %w", err)
			}
			ix, err := prior.FromService(svc)
			svc.Close()
			if err != nil {
				return fmt.Errorf("indexing prior snapshot: %w", err)
			}
			fmt.Fprintf(stderr, "prior: %d pairs indexed from %s\n", ix.Len(), *priorPath)
			plan.Prior = ix
		}
		u, rc, err := experiments.PlanSurvey(spec.Level, plan)
		if err != nil {
			return err
		}
		rc.Workers = *workers

		stopProgress := func() {}
		if *prog {
			rc.Progress = progress.NewSurvey()
			done, exited := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(exited)
				t := time.NewTicker(2 * time.Second)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						fmt.Fprintln(stderr, rc.Progress.Snapshot())
					case <-done:
						return
					}
				}
			}()
			stopProgress = func() {
				close(done)
				<-exited
				fmt.Fprintln(stderr, rc.Progress.Snapshot())
			}
		}
		var agg *survey.RecordAggregate
		published := 0
		if *ckpt != "" {
			agg, err = dispatch.RunLocal(u, rc, dispatch.CoordinatorConfig{
				Dir: *ckpt, OutJSONL: *out, AtlasPath: *atlasOut, Resume: *resume,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(stderr, format+"\n", args...)
				},
			})
		} else {
			agg, published, err = runSinks(u, rc, *out, *atlasOut, *atlasEvery)
		}
		stopProgress()
		if err != nil {
			return err
		}

		if *out != "" {
			fi, err := os.Stat(*out)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d trace records to %s (%d bytes)\n", agg.Records, *out, fi.Size())
		}
		if *atlasOut != "" {
			// The header of the file just written already carries the
			// stat totals.
			r, err := traceio.OpenAtlasFile(*atlasOut)
			if err != nil {
				return err
			}
			st := atlas.HeaderStats(r.Header())
			if err := r.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote atlas snapshot to %s (%s)\n", *atlasOut, st)
			if published > 0 {
				fmt.Fprintf(stdout, "published %d atlas deltas alongside %s\n", published, *atlasOut)
			}
		}

		// The aggregate covers the whole survey, a resumed one included:
		// its tables always print, its figures with -figs.
		fmt.Fprint(stdout, agg.Summary())
		for _, a := range experiments.Artifacts {
			if a.Level == spec.Level && a.Table != 0 {
				fmt.Fprintln(stdout, a.Format(agg))
			}
		}
		if *figs {
			for _, a := range experiments.Artifacts {
				if a.Level == spec.Level && a.Fig != 0 {
					fmt.Fprintln(stdout, a.Format(agg))
				}
			}
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runSinks runs the survey with its outputs fed record by record: the
// record log at out and the atlas at atlasOut (each when non-empty; the
// atlas publishing a delta every atlasEvery records when positive). It
// returns the aggregate of every record and the count of deltas
// published.
func runSinks(u *survey.Universe, rc survey.RunConfig, out, atlasOut string, atlasEvery int) (*survey.RecordAggregate, int, error) {
	var jsonlSink *survey.JSONLSink
	if out != "" {
		jsonlSink = survey.NewJSONLSink(out)
		rc.Sinks = append(rc.Sinks, jsonlSink)
	}
	var atlasSink *survey.AtlasSink
	if atlasOut != "" {
		atlasSink = survey.NewAtlasSink(atlas.Options{})
		if atlasEvery > 0 {
			atlasSink.PublishDeltas(atlasOut, atlasEvery)
		}
		rc.Sinks = append(rc.Sinks, atlasSink)
	}
	aggSink := survey.NewAggregateSink()
	rc.Sinks = append(rc.Sinks, aggSink)
	if _, err := survey.Run(u, rc); err != nil {
		return nil, 0, err
	}
	if jsonlSink != nil {
		if err := jsonlSink.Close(); err != nil {
			return nil, 0, err
		}
	}
	if atlasSink == nil {
		return aggSink.Agg, 0, nil
	}
	if err := atlasSink.Close(); err != nil { // flush a final partial delta, if publishing
		return nil, 0, err
	}
	return aggSink.Agg, len(atlasSink.Published()), atlasSink.Atlas.Save(atlasOut)
}

// isFile reports whether path names an existing file that is not a
// directory.
func isFile(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && !fi.IsDir()
}

// unreadFlags returns the usage error for the flags set that a mode does
// not read, or "" when there are none. reads names the mode's own flag
// first, then the others it reads.
func unreadFlags(set map[string]bool, reads ...string) string {
	var extra []string
	for name := range set {
		if !slices.Contains(reads, name) {
			extra = append(extra, "-"+name)
		}
	}
	if len(extra) == 0 {
		return ""
	}
	slices.Sort(extra)
	return fmt.Sprintf("%s: not read with -%s, which reads only -%s", strings.Join(extra, " "), reads[0], strings.Join(reads, " -"))
}

// writeHeapProfile writes a heap profile to path after a GC, which
// materializes the steady-state heap before sampling.
func writeHeapProfile(path string, stderr io.Writer) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(stderr, err)
	}
}

// liveOptions carries the -live-* flags to the platform-specific live
// runner: runLive in live_linux.go traces each destination over raw
// sockets; other platforms reject live mode (live_other.go).
type liveOptions struct {
	Out        io.Writer
	Src, Dests string
	Phi        int
	Seed       uint64
	Figs       bool
}
