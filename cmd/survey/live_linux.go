//go:build linux

package main

import (
	"fmt"
	"strings"

	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
)

// runLive traces each destination with the MDA-Lite over the batched
// raw-socket wire path and prints a per-destination summary plus
// whole-run totals, including the probes-per-syscall ratio the batching
// exists to maximize.
func runLive(o liveOptions) error {
	src, err := packet.ParseAddr(o.Src)
	if err != nil {
		return fmt.Errorf("-live-src: %w", err)
	}
	var dests []packet.Addr
	for _, s := range strings.Split(o.Dests, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		d, err := packet.ParseAddr(s)
		if err != nil {
			return fmt.Errorf("-live-dests: %w", err)
		}
		dests = append(dests, d)
	}
	if len(dests) == 0 {
		return fmt.Errorf("-live-dests: no destinations")
	}

	var totalProbes, totalSyscalls uint64
	reached := 0
	for i, dst := range dests {
		p, err := probe.NewLiveProber(src, dst)
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
		reached, len(dests), totalProbes, totalSyscalls,
		float64(totalProbes)/float64(totalSyscalls))
	return nil
}
