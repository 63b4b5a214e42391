package experiments

import (
	"fmt"
	"strings"

	"mmlpt/internal/core"
	"mmlpt/internal/mda"
	"mmlpt/internal/prior"
	"mmlpt/internal/stats"
	"mmlpt/internal/survey"
)

// SurveyConfig is the plan of a Sec 5 survey: the inputs that decide
// which pairs are traced and what their records contain. How a run
// executes — workers, sinks, spans, progress — is set by the caller
// on the survey.RunConfig PlanSurvey returns.
type SurveyConfig struct {
	Pairs  int
	Seed   uint64
	Phi    int
	Rounds int // alias rounds for the router-level survey
	// Prior seeds the IP-level survey from an atlas-derived index and
	// switches it to the MDA-Lite (the prior-consuming tracer).
	Prior *prior.Index
}

func (cfg SurveyConfig) runConfig(algo survey.Algo) survey.RunConfig {
	return survey.RunConfig{
		Algo: algo, Phi: cfg.Phi, Retries: 1, Prior: cfg.Prior,
		Trace: mda.Config{Seed: cfg.Seed},
	}
}

// PlanSurvey derives the universe and run configuration the named
// survey level ("ip" or "router") traces under cfg. It is the single
// source of truth shared by the single-machine runs (cmd/survey, IPSurvey,
// RouterSurvey) and the distributed control plane (internal/dispatch):
// a fleet coordinator and its runners both call it with the same spec,
// so every machine derives exactly the jobs — and emits exactly the
// record bytes — a single-machine run would.
func PlanSurvey(level string, cfg SurveyConfig) (*survey.Universe, survey.RunConfig, error) {
	switch level {
	case "ip":
		if cfg.Pairs == 0 {
			cfg.Pairs = 400
		}
		algo := survey.AlgoMDA
		if cfg.Prior != nil {
			algo = survey.AlgoMDALite
		}
		u := survey.Generate(survey.GenConfig{Seed: cfg.Seed ^ 0x1b5e7, Pairs: cfg.Pairs})
		return u, cfg.runConfig(algo), nil
	case "router":
		if cfg.Pairs == 0 {
			cfg.Pairs = 200
		}
		if cfg.Rounds == 0 {
			cfg.Rounds = 10
		}
		u := survey.Generate(survey.GenConfig{Seed: cfg.Seed ^ 0x1b5e8, Pairs: cfg.Pairs})
		rc := cfg.runConfig(survey.AlgoMultilevel)
		rc.OnlyLB = true
		rc.Rounds = cfg.Rounds
		return u, rc, nil
	default:
		return nil, survey.RunConfig{}, fmt.Errorf("experiments: unknown survey level %q (ip or router)", level)
	}
}

// IPSurvey runs the Sec 5.1 IP-level survey with the MDA (as the paper
// did) and returns its record aggregate for figure extraction. With a
// prior index it runs the MDA-Lite instead — the tracer that consumes
// priors — so a re-survey seeded from an earlier atlas spends its
// confirmation budget rather than the full stopping-rule cost.
func IPSurvey(cfg SurveyConfig) (*survey.RecordAggregate, error) {
	return runSurvey("ip", cfg)
}

// RouterSurvey runs the Sec 5.2 router-level survey with the multilevel
// tracer over the load-balanced pairs and returns its record aggregate.
func RouterSurvey(cfg SurveyConfig) (*survey.RecordAggregate, error) {
	return runSurvey("router", cfg)
}

// runSurvey runs a survey level into a record aggregate.
func runSurvey(level string, cfg SurveyConfig) (*survey.RecordAggregate, error) {
	u, rc, err := PlanSurvey(level, cfg)
	if err != nil {
		return nil, err
	}
	agg := survey.NewAggregateSink()
	rc.Sinks = []survey.Sink{agg}
	_, err = survey.Run(u, rc)
	return agg.Agg, err
}

// FormatFig2 renders the missing-meshing probability CDFs.
func FormatFig2(agg *survey.RecordAggregate) string {
	var b strings.Builder
	b.WriteString("# Fig 2: probability of failing to detect meshing (phi=2), per meshed hop pair\n")
	for _, w := range []survey.Weighting{survey.Measured, survey.Distinct} {
		cdf := agg.MeshMissCDF(w)
		fmt.Fprintf(&b, "## %s: n=%d, P(miss<=0.1)=%.2f, P(miss<=0.25)=%.2f (paper: ~0.70 and ~0.95)\n",
			w, cdf.N(), cdf.At(0.1), cdf.At(0.25))
		b.WriteString(stats.FormatCDF(cdf, w.String()))
	}
	return b.String()
}

// FormatFig7 renders the width-asymmetry distributions.
func FormatFig7(agg *survey.RecordAggregate) string {
	var b strings.Builder
	b.WriteString("# Fig 7: max width asymmetry distribution (portion of diamonds)\n")
	for _, w := range []survey.Weighting{survey.Measured, survey.Distinct} {
		h := agg.WidthAsymmetryDist(w)
		fmt.Fprintf(&b, "## %s: zero-asymmetry portion %.3f (paper: ~0.89)\n", w, h.Portion(0))
		for _, k := range h.Keys() {
			fmt.Fprintf(&b, "%d %.6f\n", k, h.Portion(k))
		}
	}
	return b.String()
}

// FormatFig8 renders the max probability difference CDFs.
func FormatFig8(agg *survey.RecordAggregate) string {
	var b strings.Builder
	b.WriteString("# Fig 8: max probability difference, asymmetric unmeshed diamonds\n")
	for _, w := range []survey.Weighting{survey.Measured, survey.Distinct} {
		cdf := agg.MaxProbDiffCDF(w)
		fmt.Fprintf(&b, "## %s: n=%d, P(diff<=0.25)=%.2f, P(diff<=0.5)=%.2f (paper: 0.90/0.58 and ~0.99)\n",
			w, cdf.N(), cdf.At(0.25), cdf.At(0.5))
		b.WriteString(stats.FormatCDF(cdf, w.String()))
	}
	return b.String()
}

// FormatFig9 renders the ratio-of-meshed-hops CDFs.
func FormatFig9(agg *survey.RecordAggregate) string {
	var b strings.Builder
	b.WriteString("# Fig 9: ratio of meshed hops over meshed diamonds\n")
	for _, w := range []survey.Weighting{survey.Measured, survey.Distinct} {
		cdf := agg.MeshedRatioCDF(w)
		fmt.Fprintf(&b, "## %s: n=%d, P(ratio<=0.4)=%.2f (paper: >0.80)\n", w, cdf.N(), cdf.At(0.4))
		b.WriteString(stats.FormatCDF(cdf, w.String()))
	}
	return b.String()
}

// FormatFig10 renders the max length and max width distributions.
func FormatFig10(agg *survey.RecordAggregate) string {
	var b strings.Builder
	b.WriteString("# Fig 10: max length and max width distributions\n")
	for _, w := range []survey.Weighting{survey.Measured, survey.Distinct} {
		lh := agg.LengthDist(w)
		fmt.Fprintf(&b, "## %s length: len2 portion %.3f (paper: ~0.48)\n", w, lh.Portion(2))
		for _, k := range lh.Keys() {
			fmt.Fprintf(&b, "len %d %.6f\n", k, lh.Portion(k))
		}
		wh := agg.WidthDist(w)
		fmt.Fprintf(&b, "## %s width: w48 %.4f w56 %.4f max %d\n",
			w, wh.Portion(48), wh.Portion(56), maxKey(wh))
		for _, k := range wh.Keys() {
			fmt.Fprintf(&b, "width %d %.6f\n", k, wh.Portion(k))
		}
	}
	return b.String()
}

func maxKey(h *stats.Histogram) int {
	keys := h.Keys()
	if len(keys) == 0 {
		return 0
	}
	return keys[len(keys)-1]
}

// FormatFig11 renders the joint length×width distribution.
func FormatFig11(agg *survey.RecordAggregate) string {
	var b strings.Builder
	b.WriteString("# Fig 11: joint (max length, max width) counts\n")
	for _, w := range []survey.Weighting{survey.Measured, survey.Distinct} {
		j := agg.JointLengthWidth(w)
		fmt.Fprintf(&b, "## %s (total %d)\n", w, j.Total)
		for _, c := range j.Cells() {
			fmt.Fprintf(&b, "%d %d %d\n", c[0], c[1], c[2])
		}
	}
	return b.String()
}

// FormatFig12 renders the router-size CDFs.
func FormatFig12(agg *survey.RecordAggregate) string {
	distinct, aggregated := agg.RouterSizeCDFs()
	var b strings.Builder
	b.WriteString("# Fig 12: router size (interfaces per router)\n")
	fmt.Fprintf(&b, "## distinct: n=%d, P(size=2)=%.2f, P(size<=10)=%.2f (paper: 0.68 and 0.97)\n",
		distinct.N(), distinct.At(2)-distinct.At(1), distinct.At(10))
	b.WriteString(stats.FormatCDF(distinct, "distinct"))
	fmt.Fprintf(&b, "## aggregated: n=%d, max=%.0f (paper: >50 exists)\n", aggregated.N(), aggregated.Max())
	b.WriteString(stats.FormatCDF(aggregated, "aggregated"))
	return b.String()
}

// FormatTable3 renders the alias-resolution effect fractions.
func FormatTable3(agg *survey.RecordAggregate) string {
	t := agg.Table3()
	var b strings.Builder
	b.WriteString("# Table 3: effect of alias resolution on unique diamonds\n")
	paper := map[core.DiamondEffect]float64{
		core.EffectNoChange:        0.579,
		core.EffectSingleSmaller:   0.355,
		core.EffectMultipleSmaller: 0.006,
		core.EffectOnePath:         0.058,
	}
	for _, e := range []core.DiamondEffect{
		core.EffectNoChange, core.EffectSingleSmaller,
		core.EffectMultipleSmaller, core.EffectOnePath,
	} {
		fmt.Fprintf(&b, "%-28s %.3f   (paper: %.3f)\n", e, t[e], paper[e])
	}
	return b.String()
}

// FormatFig13 renders the before/after width distributions.
func FormatFig13(agg *survey.RecordAggregate) string {
	before, after := agg.WidthBeforeAfter()
	var b strings.Builder
	b.WriteString("# Fig 13: max width of unique diamonds, IP level vs router level\n")
	fmt.Fprintf(&b, "## IP level: w48 %.4f w56 %.4f\n", before.Portion(48), before.Portion(56))
	for _, k := range before.Keys() {
		fmt.Fprintf(&b, "ip %d %.6f\n", k, before.Portion(k))
	}
	fmt.Fprintf(&b, "## router level: w48 %.4f w56 %.4f (paper: 48 peak remains, 56 disappears)\n",
		after.Portion(48), after.Portion(56))
	for _, k := range after.Keys() {
		fmt.Fprintf(&b, "router %d %.6f\n", k, after.Portion(k))
	}
	return b.String()
}

// FormatFig14 renders the joint before/after width distribution.
func FormatFig14(agg *survey.RecordAggregate) string {
	j := agg.JointWidthBeforeAfter()
	var b strings.Builder
	b.WriteString("# Fig 14: joint (width before, width after) for changed diamonds\n")
	fmt.Fprintf(&b, "## total changed: %d\n", j.Total)
	for _, c := range j.Cells() {
		fmt.Fprintf(&b, "%d %d %d\n", c[0], c[1], c[2])
	}
	return b.String()
}
