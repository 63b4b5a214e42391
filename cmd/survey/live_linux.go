//go:build linux

package main

import (
	"fmt"

	"mmlpt/internal/mda"
	"mmlpt/internal/probe"
)

// runLive traces each destination with the MDA-Lite over the batched
// raw-socket wire path and prints a per-destination summary plus
// whole-run totals, including the probes-per-syscall ratio the batching
// exists to maximize.
func runLive(o liveOptions) error {
	var totalProbes, totalSyscalls uint64
	reached := 0
	for i, dst := range o.Dests {
		p, err := probe.NewLiveProber(o.Src, dst)
		if err != nil {
			return err
		}
		res := mda.TraceLite(p, mda.Config{Seed: o.Seed + uint64(i)}, o.Phi)
		syscalls := p.Syscalls()
		p.Close()

		status := "unreached"
		if res.ReachedDst {
			status = fmt.Sprintf("reached at hop %d", res.DstHop)
			reached++
		}
		perSyscall := float64(res.Probes) / float64(syscalls)
		fmt.Fprintf(o.Out, "%s: %s, %d hops, %d probes, %d syscalls (%.1f probes/syscall)\n",
			dst, status, res.Graph.NumHops(), res.Probes, syscalls, perSyscall)
		if o.Figs {
			fmt.Fprint(o.Out, res.Graph.String())
		}
		totalProbes += res.Probes
		totalSyscalls += syscalls
	}
	fmt.Fprintf(o.Out, "live: %d/%d destinations reached, %d probes, %d syscalls (%.1f probes/syscall)\n",
		reached, len(o.Dests), totalProbes, totalSyscalls,
		float64(totalProbes)/float64(totalSyscalls))
	return nil
}
