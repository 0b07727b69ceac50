package obsv

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution([]time.Duration{ms(30), ms(10), ms(20), -1, ms(40)})
	if d.Count() != 4 || d.Failures() != 1 || d.Total() != 5 {
		t.Fatalf("counts wrong: %d %d %d", d.Count(), d.Failures(), d.Total())
	}
	if d.Max() != ms(40) {
		t.Fatal("max wrong")
	}
	if d.Mean() != ms(25) {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestPercentiles(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 100; i++ {
		samples = append(samples, ms(i))
	}
	d := NewDistribution(samples)
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, ms(50)},
		{99, ms(99)},
		{100, ms(100)},
		{1, ms(1)},
		{0, ms(1)},
		{-5, ms(1)},
		{150, ms(100)},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if d.Median() != ms(50) {
		t.Fatal("median wrong")
	}
}

func TestPercentileEmpty(t *testing.T) {
	d := NewDistribution(nil)
	if d.Percentile(50) != 0 || d.Mean() != 0 || d.Max() != 0 {
		t.Fatal("empty distribution should return zeros")
	}
}

func TestFractionWithin(t *testing.T) {
	d := NewDistribution([]time.Duration{ms(1), ms(2), ms(3), ms(10), -1})
	if got := d.Within(ms(3)); got != 3 {
		t.Fatalf("Within = %v", got)
	}
	if got := d.FractionWithin(ms(3)); got != 3.0/5 {
		t.Fatalf("FractionWithin = %v", got)
	}
	if got := d.FractionWithin(ms(100)); got != 4.0/5 {
		t.Fatalf("failures must never count as within: %v", got)
	}
	if NewDistribution(nil).FractionWithin(ms(1)) != 0 {
		t.Fatal("empty should be 0")
	}
}

func TestCDF(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 50; i++ {
		samples = append(samples, ms(i))
	}
	d := NewDistribution(samples)
	cdf := d.CDF(10)
	if len(cdf) != 10 {
		t.Fatalf("len = %d", len(cdf))
	}
	last := cdf[len(cdf)-1]
	if last.Value != ms(50) || last.Fraction != 1.0 {
		t.Fatalf("last point = %+v", last)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction < cdf[i-1].Fraction {
			t.Fatal("CDF not monotone")
		}
	}
	// With failures the CDF tops out below 1.
	d2 := NewDistribution([]time.Duration{ms(1), -1})
	cdf2 := d2.CDF(5)
	if cdf2[len(cdf2)-1].Fraction != 0.5 {
		t.Fatalf("failure-aware fraction = %v", cdf2[len(cdf2)-1].Fraction)
	}
	if d.CDF(0) != nil || NewDistribution(nil).CDF(5) != nil {
		t.Fatal("degenerate CDFs should be nil")
	}
}

func TestScalar(t *testing.T) {
	s := NewScalar([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 1e-9 {
		t.Fatalf("stddev = %v", s.StdDev())
	}
	if s.Max() != 9 {
		t.Fatalf("max = %v", s.Max())
	}
	if s.MeanStd() != "5 ± 2" {
		t.Fatalf("MeanStd = %q", s.MeanStd())
	}
	s.Add(100)
	if s.Count() != 9 {
		t.Fatal("Add did not extend")
	}
}

func TestScalarEdgeCases(t *testing.T) {
	empty := NewScalar(nil)
	if empty.Mean() != 0 || empty.StdDev() != 0 || empty.Max() != 0 {
		t.Fatal("empty scalar should be zeros")
	}
	one := NewScalar([]float64{7})
	if one.StdDev() != 0 {
		t.Fatal("single sample stddev should be 0")
	}
}

func TestWriteCDFCSV(t *testing.T) {
	d := NewDistribution([]time.Duration{ms(10), ms(20), ms(30), ms(40)})
	var buf strings.Builder
	if err := d.WriteCDFCSV(&buf, 4); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "ms,fraction" || len(lines) != 5 {
		t.Fatalf("csv = %q", buf.String())
	}
	if lines[4] != "40,1.000000" {
		t.Fatalf("last line = %q", lines[4])
	}
}
