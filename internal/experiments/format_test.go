package experiments

import (
	"strings"
	"testing"

	"mmlpt/internal/alias"
)

// Formatter smoke tests: every paper artifact's renderer must produce the
// expected headers and well-formed series so cmd/paperfig output stays
// machine-consumable.

func TestFormatFig1(t *testing.T) {
	t.Parallel()
	s := FormatFig1(Fig1(Fig1Config{Runs: 3, Seed: 1}))
	if !strings.Contains(s, "# Fig 1") || !strings.Contains(s, "mda-lite") {
		t.Fatalf("output:\n%s", s)
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 2+4 {
		t.Fatalf("expected 4 data rows:\n%s", s)
	}
}

func TestFormatFig3(t *testing.T) {
	t.Parallel()
	s := FormatFig3(Fig3(Fig3Config{Runs: 2, Seed: 1}))
	for _, want := range []string{"# Fig 3", "max-length-2 mda", "meshed mda-lite", "switch_rate"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestFormatFig4(t *testing.T) {
	t.Parallel()
	r := Fig4(Fig4Config{Pairs: 10, Seed: 1})
	s := FormatFig4(r)
	for _, want := range []string{"# Fig 4", "# Table 1", "Second MDA", "Single flow ID", "paper:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q", want)
		}
	}
	if n := len(r.VertexRatios[VariantMDA2]); n != r.Pairs {
		t.Fatalf("vertex ratios n=%d, pairs=%d", n, r.Pairs)
	}
}

func TestFormatSec3(t *testing.T) {
	t.Parallel()
	s := FormatSec3(Sec3Validation(Sec3Config{Samples: 2, RunsPerSample: 50, Seed: 1}))
	for _, want := range []string{"predicted_failure 0.03125", "measured_failure", "within_ci"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestFormatFig5(t *testing.T) {
	t.Parallel()
	s := FormatFig5(Fig5(Fig5Config{Pairs: 5, Seed: 1, rounds: 2}))
	if !strings.Contains(s, "# Fig 5") || !strings.Contains(s, "probe_ratio") {
		t.Fatalf("output:\n%s", s)
	}
	if got := len(strings.Split(strings.TrimSpace(s), "\n")); got != 2+3 {
		t.Fatalf("expected 3 round rows, got %d lines:\n%s", got-2, s)
	}
}

func TestFormatTable2(t *testing.T) {
	t.Parallel()
	s := FormatTable2(Table2(Table2Config{Pairs: 8, Seed: 1, rounds: 2}))
	for _, want := range []string{"# Table 2", "Accept Indirect", "Unable Direct"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestFormatSurveyFigures(t *testing.T) {
	t.Parallel()
	agg, err := IPSurvey(SurveyConfig{Pairs: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		out  string
		want string
	}{
		{FormatFig2(agg), "# Fig 2"},
		{FormatFig7(agg), "# Fig 7"},
		{FormatFig8(agg), "# Fig 8"},
		{FormatFig9(agg), "# Fig 9"},
		{FormatFig10(agg), "# Fig 10"},
		{FormatFig11(agg), "# Fig 11"},
	}
	for _, c := range checks {
		if !strings.Contains(c.out, c.want) {
			t.Fatalf("missing %q in:\n%.200s", c.want, c.out)
		}
		if !strings.Contains(c.out, "measured") || !strings.Contains(c.out, "distinct") {
			t.Fatalf("%s lacks both weightings", c.want)
		}
	}
}

func TestFormatRouterFigures(t *testing.T) {
	t.Parallel()
	agg, err := RouterSurvey(SurveyConfig{Pairs: 40, Seed: 3, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatFig12(agg); !strings.Contains(s, "# Fig 12") {
		t.Fatal("fig 12 header")
	}
	if s := FormatTable3(agg); !strings.Contains(s, "no change") {
		t.Fatal("table 3 rows")
	}
	if s := FormatFig13(agg); !strings.Contains(s, "router level") {
		t.Fatal("fig 13 sections")
	}
	if s := FormatFig14(agg); !strings.Contains(s, "# Fig 14") {
		t.Fatal("fig 14 header")
	}
}

// TestFormatTable2CauseOrder: the cause lists print in UnableCause order,
// whatever order the maps iterate in.
func TestFormatTable2CauseOrder(t *testing.T) {
	t.Parallel()
	r := &Table2Result{
		Sets: 4, IndirectRouters: 3, DirectRouters: 2,
		UnableCausesIndirect: map[alias.UnableCause]int{
			alias.CauseTooFew: 1, alias.CauseConstant: 35, alias.CauseNonMonotonic: 2,
		},
		UnableCausesDirect: map[alias.UnableCause]int{
			alias.CauseCopyProbe: 13, alias.CauseUnresponsive: 15, alias.CauseConstant: 4,
		},
	}
	want := `# Table 2: 4 address sets identified as routers (indirect=3, direct=2)
                  Accept Direct  Reject Direct  Unable Direct
Accept Indirect           0.000          0.000          0.000
Reject Indirect           0.000          0.000          0.000
Unable Indirect           0.000          0.000          0.000
# paper:            0.365/0.144/0.203 down the Accept-Direct column;
#                   0.005 Accept-Indirect/Reject-Direct; 0.283 Accept-Indirect/Unable-Direct
# indirect-unable causes: constant=35 non-monotonic=2 too-few-samples=1
# direct-unable causes: constant=4 unresponsive=15 copy-probe=13
`
	for i := 0; i < 50; i++ {
		if got := FormatTable2(r); got != want {
			t.Fatalf("run %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
