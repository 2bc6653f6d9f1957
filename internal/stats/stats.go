// Package stats provides the small statistics toolkit the experiments use:
// delay sample series (byte-weighted means, interpolation), empirical CDFs,
// and scalar summaries.
package stats

import (
	"math"
	"sort"

	"element/internal/units"
)

// Sample is one delay observation: a delay value known at time At covering
// Bytes stream bytes.
type Sample struct {
	At    units.Time
	Delay units.Duration
	Bytes int
}

// Series is an ordered-by-time collection of samples.
type Series []Sample

// Mean reports the byte-weighted mean delay (samples with zero Bytes count
// as weight 1, so purely time-sampled series still average sensibly).
func (s Series) Mean() units.Duration {
	if len(s) == 0 {
		return 0
	}
	var total, weight float64
	for _, x := range s {
		w := float64(x.Bytes)
		if w == 0 {
			w = 1
		}
		total += float64(x.Delay) * w
		weight += w
	}
	return units.Duration(total / weight)
}

// Stdev reports the weighted standard deviation of the delays.
func (s Series) Stdev() units.Duration {
	if len(s) < 2 {
		return 0
	}
	mean := float64(s.Mean())
	var acc, weight float64
	for _, x := range s {
		w := float64(x.Bytes)
		if w == 0 {
			w = 1
		}
		d := float64(x.Delay) - mean
		acc += d * d * w
		weight += w
	}
	return units.Duration(math.Sqrt(acc / weight))
}

// At interpolates the series value at time t, as the paper does when
// comparing ELEMENT's periodic estimates against the continuous kernel
// trace. The boolean is false when the series is empty.
func (s Series) At(t units.Time) (units.Duration, bool) {
	if len(s) == 0 {
		return 0, false
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].At >= t })
	switch {
	case i == 0:
		return s[0].Delay, true
	case i == len(s):
		return s[len(s)-1].Delay, true
	}
	a, b := s[i-1], s[i]
	if b.At == a.At {
		return b.Delay, true
	}
	frac := float64(t-a.At) / float64(b.At-a.At)
	return a.Delay + units.Duration(frac*float64(b.Delay-a.Delay)), true
}

// Delays extracts the raw delay values.
func (s Series) Delays() []units.Duration {
	out := make([]units.Duration, len(s))
	for i, x := range s {
		out[i] = x.Delay
	}
	return out
}

// CDF is an empirical cumulative distribution over durations.
type CDF struct {
	sorted []units.Duration
}

// NewCDF builds a CDF from values (which it copies and sorts).
func NewCDF(values []units.Duration) CDF {
	v := make([]units.Duration, len(values))
	copy(v, values)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return CDF{sorted: v}
}

// N reports the number of points.
func (c CDF) N() int { return len(c.sorted) }

// FractionBelow reports P(X <= x).
func (c CDF) FractionBelow(x units.Duration) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Percentile reports the p-th percentile (p in [0,100]).
func (c CDF) Percentile(p float64) units.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 100 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(p / 100 * float64(len(c.sorted)-1))
	return c.sorted[idx]
}

// Points samples the CDF at n evenly spaced fractions for plotting, and
// returns (value, fraction) pairs.
func (c CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([][2]float64, 0, n)
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n)
		idx := int(f*float64(len(c.sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, [2]float64{c.sorted[idx].Seconds(), f})
	}
	return out
}

// MeanStdev reports the mean and standard deviation of a float slice.
func MeanStdev(xs []float64) (mean, stdev float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var acc float64
	for _, x := range xs {
		acc += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(acc / float64(len(xs)))
}
