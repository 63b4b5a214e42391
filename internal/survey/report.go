package survey

import (
	"fmt"
	"sort"
	"strings"

	"mmlpt/internal/core"
	"mmlpt/internal/stats"
)

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

// diamonds returns the record list under the chosen weighting.
func (r *Result) diamonds(w Weighting) []DiamondRecord {
	if w == Measured {
		return r.Measured
	}
	out := make([]DiamondRecord, 0, len(r.Distinct))
	keys := make([]string, 0, len(r.Distinct))
	byKey := make(map[string]DiamondRecord, len(r.Distinct))
	for k, d := range r.Distinct {
		s := fmt.Sprintf("%s|%s", k.Div, k.Conv)
		keys = append(keys, s)
		byKey[s] = d
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}

// WidthAsymmetryDist returns the Fig 7 distribution: portion of diamonds
// per max-width-asymmetry value.
func (r *Result) WidthAsymmetryDist(w Weighting) *stats.Histogram {
	ds := r.diamonds(w)
	xs := make([]int, 0, len(ds))
	for _, d := range ds {
		xs = append(xs, d.Metrics.MaxWidthAsymmetry)
	}
	return stats.NewHistogram(xs)
}

// MaxProbDiffCDF returns the Fig 8 CDF: maximum reach-probability
// difference over asymmetric, unmeshed diamonds (non-zero values only).
func (r *Result) MaxProbDiffCDF(w Weighting) *stats.CDF {
	var xs []float64
	for _, d := range r.diamonds(w) {
		if d.Metrics.MaxWidthAsymmetry > 0 && !d.Metrics.Meshed && d.MaxProbDiff > 0 {
			xs = append(xs, d.MaxProbDiff)
		}
	}
	return stats.NewCDF(xs)
}

// MeshedRatioCDF returns the Fig 9 CDF: ratio of meshed hops over meshed
// diamonds.
func (r *Result) MeshedRatioCDF(w Weighting) *stats.CDF {
	var xs []float64
	for _, d := range r.diamonds(w) {
		if d.Metrics.Meshed {
			xs = append(xs, d.Metrics.RatioMeshedHops)
		}
	}
	return stats.NewCDF(xs)
}

// MeshMissCDF returns the Fig 2 CDF: the Eq. (1) probability of the
// MDA-Lite failing to detect meshing, one sample per meshed hop pair.
func (r *Result) MeshMissCDF(w Weighting) *stats.CDF {
	var xs []float64
	for _, d := range r.diamonds(w) {
		xs = append(xs, d.MeshMissProbs...)
	}
	return stats.NewCDF(xs)
}

// LengthDist returns the Fig 10 (top) max-length distribution.
func (r *Result) LengthDist(w Weighting) *stats.Histogram {
	ds := r.diamonds(w)
	xs := make([]int, 0, len(ds))
	for _, d := range ds {
		xs = append(xs, d.Metrics.MaxLength)
	}
	return stats.NewHistogram(xs)
}

// WidthDist returns the Fig 10 (bottom) max-width distribution.
func (r *Result) WidthDist(w Weighting) *stats.Histogram {
	ds := r.diamonds(w)
	xs := make([]int, 0, len(ds))
	for _, d := range ds {
		xs = append(xs, d.Metrics.MaxWidth)
	}
	return stats.NewHistogram(xs)
}

// JointLengthWidth returns the Fig 11 joint distribution.
func (r *Result) JointLengthWidth(w Weighting) *stats.Joint {
	j := stats.NewJoint()
	for _, d := range r.diamonds(w) {
		j.Add(d.Metrics.MaxLength, d.Metrics.MaxWidth)
	}
	return j
}

// Summary renders the headline survey numbers (the Sec 5.1 prose).
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traces: %d, with diamonds: %d\n", len(r.Outcomes), r.LBTraces)
	fmt.Fprintf(&b, "diamonds: %d measured, %d distinct\n", len(r.Measured), len(r.Distinct))
	for _, w := range []Weighting{Measured, Distinct} {
		ds := r.diamonds(w)
		if len(ds) == 0 {
			continue
		}
		var len2, simplest, zeroAsym, meshed int
		for _, d := range ds {
			if d.Metrics.MaxLength == 2 {
				len2++
			}
			if d.Metrics.MaxLength == 2 && d.Metrics.MaxWidth == 2 {
				simplest++
			}
			if d.Metrics.MaxWidthAsymmetry == 0 {
				zeroAsym++
			}
			if d.Metrics.Meshed {
				meshed++
			}
		}
		n := float64(len(ds))
		fmt.Fprintf(&b, "%s: len2 %.1f%%, simplest(2x2) %.1f%%, zero-asymmetry %.1f%%, meshed %.1f%%\n",
			w, 100*float64(len2)/n, 100*float64(simplest)/n,
			100*float64(zeroAsym)/n, 100*float64(meshed)/n)
	}
	return b.String()
}

// Table3 tallies the effect of alias resolution on unique diamonds: the
// fractions of {no change, single smaller, multiple smaller, one path}.
// Diamonds are deduplicated by key, as the paper's "unique diamonds".
func Table3(res *Result, records []RouterRecord) map[core.DiamondEffect]float64 {
	type keyed struct {
		effect core.DiamondEffect
	}
	seen := make(map[string]keyed)
	for ri, rec := range records {
		outcome := res.Outcomes[outcomeIndex(res, rec.PairIndex)]
		ds := outcome.Graph.Diamonds()
		for di, d := range ds {
			if di >= len(rec.Effects) {
				break
			}
			k := fmt.Sprintf("%s|%s", d.DivAddr, d.ConvAddr)
			if _, ok := seen[k]; !ok {
				seen[k] = keyed{effect: rec.Effects[di]}
			}
		}
		_ = ri
	}
	counts := make(map[core.DiamondEffect]int)
	for _, v := range seen {
		counts[v.effect]++
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

func outcomeIndex(res *Result, pairIndex int) int {
	for i, o := range res.Outcomes {
		if o.PairIndex == pairIndex {
			return i
		}
	}
	return 0
}

// RouterSizeCDFs returns the Fig 12 CDFs: per-trace distinct router sizes
// and transitively aggregated router sizes.
func RouterSizeCDFs(records []RouterRecord) (distinct, aggregated *stats.CDF) {
	var d []float64
	for _, r := range records {
		for _, s := range r.Sets {
			d = append(d, float64(len(s.Addrs)))
		}
	}
	var a []float64
	for _, g := range core.AggregateRouters(AllRouterSets(records)) {
		a = append(a, float64(len(g)))
	}
	return stats.NewCDF(d), stats.NewCDF(a)
}

// WidthBeforeAfter returns the Fig 13 histograms (unique diamonds keyed by
// div/conv): max width at the IP level and at the router level.
func WidthBeforeAfter(res *Result, records []RouterRecord) (before, after *stats.Histogram) {
	seenB := make(map[string]int)
	seenA := make(map[string]int)
	for _, rec := range records {
		outcome := res.Outcomes[outcomeIndex(res, rec.PairIndex)]
		ds := outcome.Graph.Diamonds()
		for di, d := range ds {
			if di >= len(rec.WidthBefore) {
				break
			}
			k := fmt.Sprintf("%s|%s", d.DivAddr, d.ConvAddr)
			if _, ok := seenB[k]; !ok {
				seenB[k] = rec.WidthBefore[di]
				seenA[k] = rec.WidthAfter[di]
			}
		}
	}
	var bs, as []int
	for k := range seenB {
		bs = append(bs, seenB[k])
		as = append(as, seenA[k])
	}
	return stats.NewHistogram(bs), stats.NewHistogram(as)
}

// JointWidthBeforeAfter returns the Fig 14 joint distribution over
// diamonds whose width changed.
func JointWidthBeforeAfter(res *Result, records []RouterRecord) *stats.Joint {
	j := stats.NewJoint()
	for _, rec := range records {
		for i := range rec.WidthBefore {
			if rec.WidthAfter[i] != rec.WidthBefore[i] {
				j.Add(rec.WidthBefore[i], rec.WidthAfter[i])
			}
		}
	}
	return j
}
