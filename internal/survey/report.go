package survey

import (
	"fmt"
	"sort"
	"strings"

	"mmlpt/internal/alias"
	"mmlpt/internal/core"
	"mmlpt/internal/packet"
	"mmlpt/internal/stats"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// RecordAggregate is the survey's result: the one fold over its record
// stream that every figure, table and summary reads. Every number it
// holds is derived from the records alone, so replaying a JSONL log
// rebuilds it exactly — which is why a resumed run, a fleet's merged
// output and an uninterrupted run print the same text.
type RecordAggregate struct {
	Records int
	Reached int
	// LBTraces counts records with at least one diamond.
	LBTraces    int
	TotalProbes uint64
	AliasProbes uint64
	// Measured lists every diamond encounter in record order; Distinct
	// keeps the first encounter per "div|conv" key.
	Measured []traceio.SurveyDiamond
	Distinct map[string]traceio.SurveyDiamond
	// routers holds the router-level view of each multilevel record, in
	// record order.
	routers []routerView
}

// routerView is the router-level view of one multilevel trace (Sec 5.2).
type routerView struct {
	// sets are the trace's routers: its accepted multi-address alias sets.
	sets [][]packet.Addr
	// keys identifies each IP diamond of the trace; effects (Table 3) and
	// the max widths at the IP and at the router level (Figs 13/14) are
	// index-aligned with it.
	keys                    []topo.DiamondKey
	effects                 []core.DiamondEffect
	widthBefore, widthAfter []int
}

// NewRecordAggregate returns an empty aggregate.
func NewRecordAggregate() *RecordAggregate {
	return &RecordAggregate{Distinct: make(map[string]traceio.SurveyDiamond)}
}

// Add folds one record in. A multilevel record's router view is derived
// from its graph and alias sets by the rule core.Trace builds its router
// graph with: the sets union through alias.Union and the graph collapses
// onto the representatives.
func (a *RecordAggregate) Add(rec *traceio.SurveyRecord) error {
	a.Records++
	if rec.Reached {
		a.Reached++
	}
	if len(rec.Diamonds) > 0 {
		a.LBTraces++
	}
	a.TotalProbes += rec.Probes
	a.AliasProbes += rec.AliasProbes
	for _, d := range rec.Diamonds {
		a.Measured = append(a.Measured, d)
		k := d.Div + "|" + d.Conv
		if _, ok := a.Distinct[k]; !ok {
			a.Distinct[k] = d
		}
	}
	if rec.Algorithm != AlgoMultilevel.String() {
		return nil
	}
	g, err := rec.Graph()
	if err != nil {
		return fmt.Errorf("survey: pair %d: %w", rec.PairIndex, err)
	}
	u := alias.NewUnion()
	for _, s := range rec.Routers {
		u.AddSet(s)
	}
	router := core.CollapseRouters(g, u.Find)
	rv := routerView{sets: rec.Routers}
	for _, d := range g.Diamonds() {
		rv.keys = append(rv.keys, d.Key())
		rv.effects = append(rv.effects, core.ClassifyDiamond(d, router))
		rv.widthBefore = append(rv.widthBefore, d.MaxWidth())
		rv.widthAfter = append(rv.widthAfter, routerSpanMaxWidth(router, d))
	}
	a.routers = append(a.routers, rv)
	return nil
}

// routerSpanMaxWidth is the max hop width of the router graph within the
// IP diamond's hop span.
func routerSpanMaxWidth(router *topo.Graph, d *topo.Diamond) int {
	w := 1
	for h := d.DivHop; h <= d.ConvHop; h++ {
		if n := router.Width(h); n > w {
			w = n
		}
	}
	return w
}

// Weighting selects between the paper's two diamond-counting views.
type Weighting int

const (
	// Measured weights each diamond by the number of times it is
	// encountered.
	Measured Weighting = iota
	// Distinct weights each (divergence, convergence) key once.
	Distinct
)

// String names the weighting.
func (w Weighting) String() string {
	if w == Distinct {
		return "distinct"
	}
	return "measured"
}

// diamonds returns the diamond list under the chosen weighting; the
// distinct list is sorted by key.
func (a *RecordAggregate) diamonds(w Weighting) []traceio.SurveyDiamond {
	if w == Measured {
		return a.Measured
	}
	keys := make([]string, 0, len(a.Distinct))
	for k := range a.Distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]traceio.SurveyDiamond, len(keys))
	for i, k := range keys {
		out[i] = a.Distinct[k]
	}
	return out
}

// WidthAsymmetryDist returns the Fig 7 distribution: portion of diamonds
// per max-width-asymmetry value.
func (a *RecordAggregate) WidthAsymmetryDist(w Weighting) *stats.Histogram {
	ds := a.diamonds(w)
	xs := make([]int, 0, len(ds))
	for _, d := range ds {
		xs = append(xs, d.Asymmetry)
	}
	return stats.NewHistogram(xs)
}

// MaxProbDiffCDF returns the Fig 8 CDF: maximum reach-probability
// difference over asymmetric, unmeshed diamonds (non-zero values only).
func (a *RecordAggregate) MaxProbDiffCDF(w Weighting) *stats.CDF {
	var xs []float64
	for _, d := range a.diamonds(w) {
		if d.Asymmetry > 0 && !d.Meshed && d.MaxProbDiff > 0 {
			xs = append(xs, d.MaxProbDiff)
		}
	}
	return stats.NewCDF(xs)
}

// MeshedRatioCDF returns the Fig 9 CDF: ratio of meshed hops over meshed
// diamonds.
func (a *RecordAggregate) MeshedRatioCDF(w Weighting) *stats.CDF {
	var xs []float64
	for _, d := range a.diamonds(w) {
		if d.Meshed {
			xs = append(xs, d.MeshedRatio)
		}
	}
	return stats.NewCDF(xs)
}

// MeshMissCDF returns the Fig 2 CDF: the Eq. (1) probability of the
// MDA-Lite failing to detect meshing, one sample per meshed hop pair.
func (a *RecordAggregate) MeshMissCDF(w Weighting) *stats.CDF {
	var xs []float64
	for _, d := range a.diamonds(w) {
		xs = append(xs, d.MeshMissProbs...)
	}
	return stats.NewCDF(xs)
}

// LengthDist returns the Fig 10 (top) max-length distribution.
func (a *RecordAggregate) LengthDist(w Weighting) *stats.Histogram {
	ds := a.diamonds(w)
	xs := make([]int, 0, len(ds))
	for _, d := range ds {
		xs = append(xs, d.MaxLength)
	}
	return stats.NewHistogram(xs)
}

// WidthDist returns the Fig 10 (bottom) max-width distribution.
func (a *RecordAggregate) WidthDist(w Weighting) *stats.Histogram {
	ds := a.diamonds(w)
	xs := make([]int, 0, len(ds))
	for _, d := range ds {
		xs = append(xs, d.MaxWidth)
	}
	return stats.NewHistogram(xs)
}

// JointLengthWidth returns the Fig 11 joint distribution.
func (a *RecordAggregate) JointLengthWidth(w Weighting) *stats.Joint {
	j := stats.NewJoint()
	for _, d := range a.diamonds(w) {
		j.Add(d.MaxLength, d.MaxWidth)
	}
	return j
}

// Summary renders the headline survey numbers: the trace and diamond
// counts, the Sec 5.1 percentages under both weightings, and the probe
// budget.
func (a *RecordAggregate) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traces: %d, with diamonds: %d, reached: %d\n", a.Records, a.LBTraces, a.Reached)
	fmt.Fprintf(&b, "diamonds: %d measured, %d distinct\n", len(a.Measured), len(a.Distinct))
	for _, w := range []Weighting{Measured, Distinct} {
		ds := a.diamonds(w)
		if len(ds) == 0 {
			continue
		}
		var len2, simplest, zeroAsym, meshed int
		for _, d := range ds {
			if d.MaxLength == 2 {
				len2++
			}
			if d.MaxLength == 2 && d.MaxWidth == 2 {
				simplest++
			}
			if d.Asymmetry == 0 {
				zeroAsym++
			}
			if d.Meshed {
				meshed++
			}
		}
		n := float64(len(ds))
		fmt.Fprintf(&b, "%s: len2 %.1f%%, simplest(2x2) %.1f%%, zero-asymmetry %.1f%%, meshed %.1f%%\n",
			w, 100*float64(len2)/n, 100*float64(simplest)/n,
			100*float64(zeroAsym)/n, 100*float64(meshed)/n)
	}
	fmt.Fprintf(&b, "probes: %d trace + %d alias\n", a.TotalProbes, a.AliasProbes)
	return b.String()
}

// Table3 tallies the effect of alias resolution on unique diamonds: the
// fractions of {no change, single smaller, multiple smaller, one path}.
// Diamonds are deduplicated by key, as the paper's "unique diamonds"; the
// first record to hold a key decides its effect.
func (a *RecordAggregate) Table3() map[core.DiamondEffect]float64 {
	seen := make(map[topo.DiamondKey]core.DiamondEffect)
	for _, rv := range a.routers {
		for i, k := range rv.keys {
			if _, ok := seen[k]; !ok {
				seen[k] = rv.effects[i]
			}
		}
	}
	counts := make(map[core.DiamondEffect]int)
	for _, e := range seen {
		counts[e]++
	}
	out := make(map[core.DiamondEffect]float64)
	total := float64(len(seen))
	if total == 0 {
		return out
	}
	for e, c := range counts {
		out[e] = float64(c) / total
	}
	return out
}

// RouterSizeCDFs returns the Fig 12 CDFs: per-trace distinct router sizes
// and transitively aggregated router sizes.
func (a *RecordAggregate) RouterSizeCDFs() (distinct, aggregated *stats.CDF) {
	var d []float64
	u := alias.NewUnion()
	for _, rv := range a.routers {
		for _, s := range rv.sets {
			d = append(d, float64(len(s)))
			u.AddSet(s)
		}
	}
	var agg []float64
	for _, g := range u.UnsortedGroups() { // NewCDF sorts: group order is moot
		agg = append(agg, float64(len(g)))
	}
	return stats.NewCDF(d), stats.NewCDF(agg)
}

// WidthBeforeAfter returns the Fig 13 histograms (unique diamonds keyed by
// div/conv): max width at the IP level and at the router level.
func (a *RecordAggregate) WidthBeforeAfter() (before, after *stats.Histogram) {
	seen := make(map[topo.DiamondKey]bool)
	var bs, as []int
	for _, rv := range a.routers {
		for i, k := range rv.keys {
			if !seen[k] {
				seen[k] = true
				bs = append(bs, rv.widthBefore[i])
				as = append(as, rv.widthAfter[i])
			}
		}
	}
	return stats.NewHistogram(bs), stats.NewHistogram(as)
}

// JointWidthBeforeAfter returns the Fig 14 joint distribution over
// diamonds whose width changed.
func (a *RecordAggregate) JointWidthBeforeAfter() *stats.Joint {
	j := stats.NewJoint()
	for _, rv := range a.routers {
		for i := range rv.widthBefore {
			if rv.widthAfter[i] != rv.widthBefore[i] {
				j.Add(rv.widthBefore[i], rv.widthAfter[i])
			}
		}
	}
	return j
}
