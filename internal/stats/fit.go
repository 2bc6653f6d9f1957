package stats

import "math"

// This file holds the model-fitting half of the statistics toolkit: the
// hypothesis harness (internal/hypotheses) fits simulator output against
// the closed-form twin models (internal/twin) with ordinary least squares,
// and judges the fit on R², slope confidence intervals, and monotonicity.

// LinFit is an ordinary-least-squares line fit y = Slope·x + Intercept.
type LinFit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit. A degenerate
	// input (fewer than two distinct x, or zero y variance with zero
	// residual) reports 1 when the line explains everything and 0
	// otherwise.
	R2 float64
	// SlopeStderr is the standard error of the slope estimate (0 when
	// n < 3 leaves no residual degrees of freedom).
	SlopeStderr float64
	N           int
}

// FitLinear computes the OLS fit of ys against xs. Mismatched or
// too-short inputs return a zero LinFit with N holding the usable length.
func FitLinear(xs, ys []float64) LinFit {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	f := LinFit{N: n}
	if n < 2 {
		return f
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		// All x identical: no slope is identifiable.
		f.Intercept = my
		return f
	}
	f.Slope = sxy / sxx
	f.Intercept = my - f.Slope*mx
	var sse float64
	for i := 0; i < n; i++ {
		r := ys[i] - (f.Slope*xs[i] + f.Intercept)
		sse += r * r
	}
	switch {
	case syy > 0:
		f.R2 = 1 - sse/syy
	case sse == 0:
		f.R2 = 1
	}
	if n > 2 && sse > 0 {
		f.SlopeStderr = math.Sqrt(sse / float64(n-2) / sxx)
	}
	return f
}

// SlopeCI reports the z-score confidence interval of the fitted slope
// (z = 1.96 for ~95%). A fit without a standard error collapses to the
// point estimate.
func (f LinFit) SlopeCI(z float64) (lo, hi float64) {
	return f.Slope - z*f.SlopeStderr, f.Slope + z*f.SlopeStderr
}

// MonotoneNondecreasing reports whether ys is non-decreasing along
// increasing xs, tolerating dips of up to tol (absolute, in y units) —
// stochastic sweeps jitter, and the check should flag reversals of the
// physics, not sampling noise. Points are compared in x order; ties in x
// are averaged first.
func MonotoneNondecreasing(xs, ys []float64, tol float64) bool {
	bx, by := binByX(xs, ys)
	for i := 1; i < len(bx); i++ {
		if by[i] < by[i-1]-tol {
			return false
		}
	}
	return true
}

// Spearman computes Spearman's rank correlation between xs and ys — the
// scale-free monotonicity score the hypothesis verdicts report alongside
// the thresholded check. Ties receive midranks.
func Spearman(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0
	}
	rx, ry := midranks(xs[:n]), midranks(ys[:n])
	return pearson(rx, ry)
}

func pearson(xs, ys []float64) float64 {
	n := len(xs)
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func midranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort: inputs are sweep-sized (tens of points).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && v[idx[j]] < v[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	return ranks
}

// binByX groups equal x values and averages their ys, returning both
// series sorted by x. The monotonicity check uses it so multi-seed sweeps
// (five y values per sweep level) compare level means, not raw draws.
func binByX(xs, ys []float64) (bx, by []float64) {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	type bin struct {
		x, sum float64
		cnt    int
	}
	var bins []bin
	for i := 0; i < n; i++ {
		found := false
		for j := range bins {
			if bins[j].x == xs[i] {
				bins[j].sum += ys[i]
				bins[j].cnt++
				found = true
				break
			}
		}
		if !found {
			bins = append(bins, bin{x: xs[i], sum: ys[i], cnt: 1})
		}
	}
	for i := 1; i < len(bins); i++ {
		for j := i; j > 0 && bins[j].x < bins[j-1].x; j-- {
			bins[j], bins[j-1] = bins[j-1], bins[j]
		}
	}
	bx = make([]float64, len(bins))
	by = make([]float64, len(bins))
	for i, b := range bins {
		bx[i] = b.x
		by[i] = b.sum / float64(b.cnt)
	}
	return bx, by
}
