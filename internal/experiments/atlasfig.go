package experiments

import (
	"fmt"
	"strings"

	"mmlpt/internal/atlas"
	"mmlpt/internal/stats"
)

// FormatFig12Sizes renders the aggregated-atlas variant of the Fig 12
// router-size CDF — the same transitive-closure aggregation
// RecordAggregate.RouterSizeCDFs computes from the survey's records —
// from a snapshot's stats and router sizes, as cmd/atlas reads them
// through the serve layer, so the figure can be regenerated from a file
// long after the survey process is gone.
func FormatFig12Sizes(st atlas.Stats, sizes []int) string {
	samples := make([]float64, len(sizes))
	for i, s := range sizes {
		samples[i] = float64(s)
	}
	cdf := stats.NewCDF(samples)
	var b strings.Builder
	b.WriteString("# Fig 12 (atlas): aggregated router size across all merged traces\n")
	fmt.Fprintf(&b, "## %s\n", st)
	fmt.Fprintf(&b, "## aggregated: n=%d, P(size=2)=%.2f, P(size<=10)=%.2f, max=%.0f (paper: >50 exists)\n",
		cdf.N(), cdf.At(2)-cdf.At(1), cdf.At(10), cdf.Max())
	b.WriteString(stats.FormatCDF(cdf, "aggregated"))
	return b.String()
}
