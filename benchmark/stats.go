package main

import (
	"math"
	"sort"
)

// summary is how every repeated measurement is reported: the median
// with its quartiles and the sample count, per the noise protocol in
// README.md. Quartiles follow Python's statistics.quantiles(v, n=4)
// ("exclusive" method), the rule the acceptance driver applies to the
// per-run values, so a spread computed here matches the one it is
// judged by.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Values are the raw repetitions in run order; -compare needs them
	// for the strictly-ordered test.
	Values []float64 `json:"values,omitempty"`
}

func summarize(values []float64) summary {
	s := summary{N: len(values), Values: append([]float64(nil), values...)}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quantileExclusive(sorted, 0.25), quantileExclusive(sorted, 0.5), quantileExclusive(sorted, 0.75)
	return s
}

// iqrFrac is the interquartile distance as a share of the median (0
// for an empty or zero-median summary).
func (s summary) iqrFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func median(values []float64) float64 { return summarize(values).Median }

// quantileExclusive interpolates the p-quantile of sorted at position
// p·(n+1), clamped to the ends — statistics.quantiles' default method.
func quantileExclusive(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// tailPercentiles are the candidates highestResolvedPercentile picks
// from, in parts per ten thousand so the sample arithmetic is exact.
var tailPercentiles = []int{9999, 9990, 9900, 9500, 9000, 7500}

// highestResolvedPercentile returns the highest percentile of n samples
// that still has at least ten samples beyond it (choosing-metrics §1):
// a p99 of 200 samples rests on two points and is not reported. ok is
// false when even the lowest candidate is unresolved.
func highestResolvedPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n*(10000-c)/10000 >= 10 {
			return float64(c) / 10000, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank p-quantile of sorted (for per-operation
// latencies, where interpolating between two slow samples invents a
// value nobody measured).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
