package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Points returns up to n evenly spaced (x, P(X<=x)) pairs: a plotting
// helper only this test exercises.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * len(c.sorted) / n
		if idx > len(c.sorted) {
			idx = len(c.sorted)
		}
		x := c.sorted[idx-1]
		out = append(out, [2]float64{x, float64(idx) / float64(len(c.sorted))})
	}
	return out
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {99, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.want {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if c.Min() != 1 || c.Max() != 3 {
		t.Errorf("min/max %v %v", c.Min(), c.Max())
	}
}

func TestCDFQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	c := NewCDF(xs)
	if q := c.Quantile(0.5); q != 50 {
		t.Errorf("median %v", q)
	}
	if q := c.Quantile(0); q != 0 {
		t.Errorf("q0 %v", q)
	}
	if q := c.Quantile(1); q != 99 {
		t.Errorf("q1 %v", q)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Min()) {
		t.Fatal("empty CDF misbehaves")
	}
}

func TestCDFAtMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		c := NewCDF(xs)
		sort.Float64s(probes)
		last := -1.0
		for _, p := range probes {
			if math.IsNaN(p) {
				continue
			}
			v := c.At(p)
			if v < last-1e-12 || v < 0 || v > 1 {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDevCI(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	sd := StdDev(xs)
	if math.Abs(sd-2.1380899353) > 1e-9 {
		t.Fatalf("stddev %v", sd)
	}
	m, hw := MeanCI(xs, 1.96)
	if m != 5 || math.Abs(hw-1.96*sd/math.Sqrt(8)) > 1e-12 {
		t.Fatalf("CI %v %v", m, hw)
	}
	if math.IsNaN(Mean(nil)) == false {
		t.Fatal("mean of nothing should be NaN")
	}
	if StdDev([]float64{1}) != 0 {
		t.Fatal("stddev of one sample")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]int{1, 2, 2, 3, 3, 3})
	if h.Total != 6 {
		t.Fatalf("total %d", h.Total)
	}
	if h.Portion(2) != 2.0/6 || h.Portion(9) != 0 {
		t.Fatal("portions wrong")
	}
	keys := h.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 3 {
		t.Fatalf("keys %v", keys)
	}
}

func TestJoint(t *testing.T) {
	j := NewJoint()
	j.Add(1, 2)
	j.Add(1, 2)
	j.Add(3, 4)
	if j.Total != 3 {
		t.Fatalf("total %d", j.Total)
	}
	cells := j.Cells()
	if len(cells) != 2 || cells[0] != [3]int{1, 2, 2} || cells[1] != [3]int{3, 4, 1} {
		t.Fatalf("cells %v", cells)
	}
}

func TestCDFPoints(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i)
	}
	c := NewCDF(xs)
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[len(pts)-1][1] != 1 {
		t.Fatalf("last point p=%v", pts[len(pts)-1][1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatal("points not monotone")
		}
	}
}

func TestFormatCDFHeader(t *testing.T) {
	s := FormatCDF(NewCDF([]float64{1, 2}), "demo")
	if len(s) == 0 || s[0] != '#' {
		t.Fatalf("format: %q", s)
	}
}
