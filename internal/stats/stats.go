// Package stats provides the small statistical toolkit the experiments
// use: empirical CDFs, sample means with normal-approximation confidence
// intervals, histograms, and ratio aggregation.
//
// In the layering, stats is a thin leaf utility: pure functions over
// float slices, no dependencies inside the module, consumed by
// internal/experiments and the figure formatters.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied, then sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(q * float64(len(c.sorted)))
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Min and Max return the extremes.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Mean returns the arithmetic mean of samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	return sum / float64(len(samples))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	m := Mean(samples)
	var ss float64
	for _, x := range samples {
		d := x - m
		ss += float64(d * d) // no FMA fusion: same bits on every GOARCH
	}
	return math.Sqrt(ss / float64(len(samples)-1))
}

// MeanCI returns the mean of samples and the half-width of its
// normal-approximation confidence interval at the given z (1.96 for 95%).
func MeanCI(samples []float64, z float64) (mean, halfWidth float64) {
	mean = Mean(samples)
	if len(samples) < 2 {
		return mean, 0
	}
	halfWidth = z * StdDev(samples) / math.Sqrt(float64(len(samples)))
	return mean, halfWidth
}

// Histogram counts integer-valued samples into a map, plus total.
type Histogram struct {
	Counts map[int]int
	Total  int
}

// NewHistogram builds a histogram over int samples.
func NewHistogram(samples []int) *Histogram {
	h := &Histogram{Counts: make(map[int]int)}
	for _, x := range samples {
		h.Counts[x]++
		h.Total++
	}
	return h
}

// Portion returns the fraction of samples equal to x.
func (h *Histogram) Portion(x int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[x]) / float64(h.Total)
}

// Keys returns sorted distinct values.
func (h *Histogram) Keys() []int {
	keys := make([]int, 0, len(h.Counts))
	for k := range h.Counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Joint is a sparse 2-D joint distribution over integer pairs, used for
// the length×width heatmaps (Figs 11, 14).
type Joint struct {
	Counts map[[2]int]int
	Total  int
}

// NewJoint returns an empty joint distribution.
func NewJoint() *Joint { return &Joint{Counts: make(map[[2]int]int)} }

// Add records one (x, y) observation.
func (j *Joint) Add(x, y int) {
	j.Counts[[2]int{x, y}]++
	j.Total++
}

// Cells returns the sorted nonzero cells as (x, y, count).
func (j *Joint) Cells() [][3]int {
	out := make([][3]int, 0, len(j.Counts))
	for k, c := range j.Counts {
		out = append(out, [3]int{k[0], k[1], c})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// FormatCDF renders a CDF as "x p" lines, one per distinct sample value,
// the format cmd/paperfig emits for plotting.
func FormatCDF(c *CDF, header string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (n=%d)\n", header, c.N())
	last := math.Inf(-1)
	for i, x := range c.sorted {
		if x == last && i != len(c.sorted)-1 {
			continue
		}
		fmt.Fprintf(&b, "%g %.6f\n", x, float64(i+1)/float64(len(c.sorted)))
		last = x
	}
	return b.String()
}
