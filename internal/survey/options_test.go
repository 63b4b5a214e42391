package survey

import (
	"testing"

	"mmlpt/internal/mda"
	"mmlpt/internal/prior"
	"mmlpt/internal/probe"
	"mmlpt/internal/progress"
)

// TestFingerprintCoversEveryInput: changing any one input that decides
// which pairs a run traces or what their records hold changes the
// options hash, so a fleet manifest of another experiment is refused;
// changing only how the run executes leaves it alone, so the same
// experiment resumes under other workers, sinks or spans.
func TestFingerprintCoversEveryInput(t *testing.T) {
	t.Parallel()
	baseGen := GenConfig{Seed: 3, Pairs: 12}
	baseRun := RunConfig{Algo: AlgoMDALite, Retries: 1, Trace: mda.Config{Seed: 3}}
	want := Fingerprint(Generate(baseGen), baseRun)
	for _, c := range []struct {
		name    string
		gen     func(*GenConfig)
		run     func(*RunConfig)
		changes bool
	}{
		{"universe seed", func(g *GenConfig) { g.Seed = 4 }, nil, true},
		{"pairs", func(g *GenConfig) { g.Pairs = 13 }, nil, true},
		{"star hop probability", func(g *GenConfig) { g.starHopProb = 0.05 }, nil, true},
		{"algorithm", nil, func(r *RunConfig) { r.Algo = AlgoMDA }, true},
		{"trace seed", nil, func(r *RunConfig) { r.Trace.Seed = 4 }, true},
		{"max TTL", nil, func(r *RunConfig) { r.Trace.MaxTTL = 20 }, true},
		{"stopping points", nil, func(r *RunConfig) { r.Trace.Stop = mda.StoppingPoints(0.5, 128) }, true},
		{"phi", nil, func(r *RunConfig) { r.Phi = 4 }, true},
		{"only LB", nil, func(r *RunConfig) { r.OnlyLB = true }, true},
		{"rounds", nil, func(r *RunConfig) { r.Rounds = 3 }, true},
		{"probes per round", nil, func(r *RunConfig) { r.probesPerRound = 10 }, true},
		{"retries", nil, func(r *RunConfig) { r.Retries = 2 }, true},
		{"prior", nil, func(r *RunConfig) { r.Prior = &prior.Index{} }, true},

		{"workers", nil, func(r *RunConfig) { r.Workers = 3 }, false},
		{"sinks", nil, func(r *RunConfig) { r.Sinks = []Sink{NewAggregateSink()} }, false},
		{"span", nil, func(r *RunConfig) { r.SpanStart, r.SpanCount = 2, 5 }, false},
		{"prober wrapper", nil, func(r *RunConfig) {
			r.WrapProber = func(_ Pair, p probe.Prober) probe.Prober { return p }
		}, false},
		{"progress", nil, func(r *RunConfig) { r.Progress = progress.NewSurvey() }, false},
	} {
		gen, run := baseGen, baseRun
		if c.gen != nil {
			c.gen(&gen)
		}
		if c.run != nil {
			c.run(&run)
		}
		if got := Fingerprint(Generate(gen), run); (got != want) != c.changes {
			t.Errorf("%s: fingerprint %x against %x; want a change: %t", c.name, got, want, c.changes)
		}
	}
}
