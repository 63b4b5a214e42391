package experiments

import (
	"strings"
	"testing"
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
	s := FormatFig5(Fig5(Fig5Config{Pairs: 5, Rounds: 2, Seed: 1}))
	if !strings.Contains(s, "# Fig 5") || !strings.Contains(s, "probe_ratio") {
		t.Fatalf("output:\n%s", s)
	}
	if got := len(strings.Split(strings.TrimSpace(s), "\n")); got != 2+3 {
		t.Fatalf("expected 3 round rows, got %d lines:\n%s", got-2, s)
	}
}

func TestFormatTable2(t *testing.T) {
	t.Parallel()
	s := FormatTable2(Table2(Table2Config{Pairs: 8, Rounds: 2, Seed: 1}))
	for _, want := range []string{"# Table 2", "Accept Indirect", "Unable Direct"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestFormatSurveyFigures(t *testing.T) {
	t.Parallel()
	res, err := IPSurvey(SurveyConfig{Pairs: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		out  string
		want string
	}{
		{FormatFig2(res), "# Fig 2"},
		{FormatFig7(res), "# Fig 7"},
		{FormatFig8(res), "# Fig 8"},
		{FormatFig9(res), "# Fig 9"},
		{FormatFig10(res), "# Fig 10"},
		{FormatFig11(res), "# Fig 11"},
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
	res, recs, err := RouterSurvey(SurveyConfig{Pairs: 40, Seed: 3, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatFig12(recs); !strings.Contains(s, "# Fig 12") {
		t.Fatal("fig 12 header")
	}
	if s := FormatTable3(res, recs); !strings.Contains(s, "no change") {
		t.Fatal("table 3 rows")
	}
	if s := FormatFig13(res, recs); !strings.Contains(s, "router level") {
		t.Fatal("fig 13 sections")
	}
	if s := FormatFig14(res, recs); !strings.Contains(s, "# Fig 14") {
		t.Fatal("fig 14 header")
	}
}
