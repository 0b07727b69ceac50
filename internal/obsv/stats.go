package obsv

// Exact summary statistics over the series a SlotTimeline (or a pooled
// set of node outcomes) produces: distributions of completion times with
// percentiles, CDF series for figures, and mean/stddev aggregates for
// Table 1. Every percentile the repository prints outside bench/ is
// Distribution.Percentile (nearest rank).

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Distribution summarizes a sample of durations. Negative inputs mean
// "never completed" and are tracked separately as failures.
type Distribution struct {
	sorted   []time.Duration
	failures int
}

// NewDistribution builds a distribution from raw samples; values < 0
// count as failures (e.g. nodes that missed the phase entirely).
func NewDistribution(samples []time.Duration) *Distribution {
	d := &Distribution{}
	for _, s := range samples {
		if s < 0 {
			d.failures++
			continue
		}
		d.sorted = append(d.sorted, s)
	}
	sort.Slice(d.sorted, func(i, j int) bool { return d.sorted[i] < d.sorted[j] })
	return d
}

// Count returns the number of successful samples.
func (d *Distribution) Count() int { return len(d.sorted) }

// Failures returns the number of never-completed samples.
func (d *Distribution) Failures() int { return d.failures }

// Total returns successes plus failures.
func (d *Distribution) Total() int { return len(d.sorted) + d.failures }

// Max returns the largest sample (0 if empty).
func (d *Distribution) Max() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[len(d.sorted)-1]
}

// Mean returns the arithmetic mean of successful samples.
func (d *Distribution) Mean() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range d.sorted {
		sum += s
	}
	return sum / time.Duration(len(d.sorted))
}

// Median returns the 50th percentile.
func (d *Distribution) Median() time.Duration { return d.Percentile(50) }

// Percentile returns the p-th percentile (0 < p <= 100) of successful
// samples, failures excluded. Uses the nearest-rank method.
func (d *Distribution) Percentile(p float64) time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return d.sorted[0]
	}
	if p >= 100 {
		return d.sorted[len(d.sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.sorted))))
	if rank < 1 {
		rank = 1
	}
	return d.sorted[rank-1]
}

// Within returns the number of samples that completed within the
// deadline.
func (d *Distribution) Within(deadline time.Duration) int {
	return sort.Search(len(d.sorted), func(i int) bool { return d.sorted[i] > deadline })
}

// FractionWithin returns the fraction of ALL samples (failures included in
// the denominator) that completed within the deadline — the paper's
// "met the 4 s deadline" metric.
func (d *Distribution) FractionWithin(deadline time.Duration) float64 {
	if d.Total() == 0 {
		return 0
	}
	return float64(d.Within(deadline)) / float64(d.Total())
}

// CDFPoint is one point of a cumulative distribution series.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64 // cumulative fraction of ALL samples
}

// CDF returns an evenly subsampled CDF with at most points entries,
// suitable for plotting the paper's figures.
func (d *Distribution) CDF(points int) []CDFPoint {
	n := len(d.sorted)
	if n == 0 || points < 1 {
		return nil
	}
	if points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	total := float64(d.Total())
	for i := 0; i < points; i++ {
		idx := (i + 1) * n / points
		if idx < 1 {
			idx = 1
		}
		out = append(out, CDFPoint{
			Value:    d.sorted[idx-1],
			Fraction: float64(idx) / total,
		})
	}
	return out
}

// Scalar summarizes a sample of float64 values (message counts, byte
// volumes) with mean and standard deviation, as in Table 1.
type Scalar struct {
	values []float64
}

// NewScalar builds a scalar aggregate.
func NewScalar(values []float64) *Scalar {
	return &Scalar{values: append([]float64(nil), values...)}
}

// Add appends a value.
func (s *Scalar) Add(v float64) { s.values = append(s.values, v) }

// Count returns the sample size.
func (s *Scalar) Count() int { return len(s.values) }

// Mean returns the arithmetic mean.
func (s *Scalar) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the population standard deviation.
func (s *Scalar) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	acc := 0.0
	for _, v := range s.values {
		d := v - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Max returns the largest value.
func (s *Scalar) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.values {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// MeanStd formats "mean ± std" with the given precision, Table 1 style.
func (s *Scalar) MeanStd() string {
	return fmt.Sprintf("%.0f ± %.0f", s.Mean(), s.StdDev())
}

// WriteCDFCSV writes a CDF as "ms,fraction" rows, ready for gnuplot or
// matplotlib — the format used to regenerate the paper's figures as
// plots rather than tables.
func (d *Distribution) WriteCDFCSV(w io.Writer, points int) error {
	if _, err := fmt.Fprintln(w, "ms,fraction"); err != nil {
		return err
	}
	for _, pt := range d.CDF(points) {
		if _, err := fmt.Fprintf(w, "%d,%.6f\n", pt.Value.Milliseconds(), pt.Fraction); err != nil {
			return err
		}
	}
	return nil
}
