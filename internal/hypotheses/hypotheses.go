// Package hypotheses is the repository's hypothesis harness: a registry of
// named, falsifiable claims about the simulator's physics, each fit against
// the closed-form models in internal/twin across multiple seeds, plus the
// bound-calibration harness that measures how often ELEMENT's self-reported
// error bounds actually cover ground truth under every fault profile.
//
// Each hypothesis names one waterfall stage, states the analytical law it
// expects (in terms of a twin function), describes the controlled sweep
// that isolates the law, and declares the fit checks it must pass: R² of a
// linear fit, a slope band, optional intercept cap, and monotonicity. The
// harness runs the sweep across seeds, fits with internal/stats, and
// renders a FINDINGS.md verdict per hypothesis plus a machine-readable
// CONFORMANCE.json — the conformance gate CI enforces.
package hypotheses

import (
	"fmt"
	"sort"

	"element/internal/stats"
)

// Obs is one observation of a sweep: a controlled x (usually the twin's
// prediction or the swept knob, in seconds where dimensional) and the
// measured y (seconds where dimensional — both sndbuf laws use bytes).
type Obs struct {
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Seed int64   `json:"seed"`
}

// Checks declares what a hypothesis must satisfy to be corroborated.
type Checks struct {
	// MinR2 is the minimum coefficient of determination of the linear fit.
	MinR2 float64 `json:"min_r2"`
	// SlopeLo/SlopeHi bound the fitted slope (both zero = no slope check).
	SlopeLo float64 `json:"slope_lo"`
	SlopeHi float64 `json:"slope_hi"`
	// InterceptMax caps |intercept| in y units (0 = no intercept check).
	InterceptMax float64 `json:"intercept_max,omitempty"`
	// Monotone requires level-mean y to be non-decreasing in x, tolerating
	// dips up to MonotoneTol (y units).
	Monotone    bool    `json:"monotone"`
	MonotoneTol float64 `json:"monotone_tol,omitempty"`
}

// Hypothesis is one falsifiable claim about a waterfall stage's physics.
type Hypothesis struct {
	// Name is the registry key and the FINDINGS.md directory name
	// (kebab-case, h- prefix).
	Name string
	// Stage is the waterfall stage the claim is about ("sndbuf", "retx",
	// "queue", "wire", "reassembly", "rcvbuf").
	Stage string
	Title string
	// Law is the one-line analytical statement being tested, referencing
	// the twin function it comes from.
	Law string
	// Design holds the experiment-design lines of the FINDINGS.md file:
	// what is swept, what is controlled, and why the law is isolated.
	Design []string
	// XLabel/YLabel document the observation axes (units included).
	XLabel, YLabel string
	Checks         Checks
	// Collect runs the sweep for one seed and returns its observations.
	// short selects the reduced sweep used by `make conformance-short`.
	Collect func(seed int64, short bool) []Obs
}

// Perturb, when non-nil, rewrites each observation's y right after
// collection, keyed by the hypothesis's stage. It exists so tests can bend
// one stage's physics (e.g. double the queue delay) and prove the
// conformance gate catches the divergence; production runs leave it nil.
var Perturb func(stage string, y float64) float64

// Finding is the verdict of one hypothesis across all seeds.
type Finding struct {
	Name     string       `json:"name"`
	Stage    string       `json:"stage"`
	Title    string       `json:"title"`
	Law      string       `json:"law"`
	Status   string       `json:"status"` // "Corroborated" | "Refuted"
	Seeds    []int64      `json:"seeds"`
	Obs      int          `json:"obs"`
	Fit      stats.LinFit `json:"fit"`
	SlopeLo  float64      `json:"slope_ci_lo"` // 95% CI of the fitted slope
	SlopeHi  float64      `json:"slope_ci_hi"`
	Spearman float64      `json:"spearman"`
	Monotone bool         `json:"monotone"`
	Failures []string     `json:"failures,omitempty"`

	Checks Checks `json:"checks"`
	// Levels are the binned observations (level mean per distinct x),
	// rendered as the FINDINGS.md observation table.
	Levels []Level `json:"levels"`

	xlabel, ylabel string
	design         []string
	points         []Obs
}

// Level is one distinct x of the sweep with its across-seed mean y.
type Level struct {
	X     float64 `json:"x"`
	MeanY float64 `json:"mean_y"`
	N     int     `json:"n"`
}

// Corroborated reports whether the finding passed every check.
func (f *Finding) Corroborated() bool { return f.Status == "Corroborated" }

// collect runs one seed's sweep and applies the perturbation hook.
func collect(h Hypothesis, seed int64, short bool) []Obs {
	cell := h.Collect(seed, short)
	if Perturb != nil {
		for i := range cell {
			cell[i].Y = Perturb(h.Stage, cell[i].Y)
		}
	}
	return cell
}

// judge fits obs against h.Checks and renders the verdict; split from
// collect so the sharded runner can collect cells concurrently and judge
// sequentially.
func judge(h Hypothesis, seeds []int64, obs []Obs) *Finding {
	f := &Finding{
		Name: h.Name, Stage: h.Stage, Title: h.Title, Law: h.Law,
		Seeds:  append([]int64(nil), seeds...),
		Obs:    len(obs),
		Checks: h.Checks,
		xlabel: h.XLabel, ylabel: h.YLabel,
		design: h.Design, points: obs,
	}
	xs := make([]float64, len(obs))
	ys := make([]float64, len(obs))
	for i, o := range obs {
		xs[i], ys[i] = o.X, o.Y
	}
	f.Levels = binLevels(obs)
	// The regression runs over level means (mean y at each distinct x, as
	// the experiment designs state): the law is about expectations, and
	// fitting raw per-seed draws would fold sampling noise into R² and
	// punish exactly the sweeps that average it out. Spearman stays on the
	// raw points so rank stability across seeds is still reported.
	lx := make([]float64, len(f.Levels))
	ly := make([]float64, len(f.Levels))
	for i, l := range f.Levels {
		lx[i], ly[i] = l.X, l.MeanY
	}
	f.Fit = stats.FitLinear(lx, ly)
	f.SlopeLo, f.SlopeHi = f.Fit.SlopeCI(1.96)
	f.Spearman = stats.Spearman(xs, ys)
	f.Monotone = stats.MonotoneNondecreasing(xs, ys, h.Checks.MonotoneTol)

	c := h.Checks
	if len(obs) < 2 {
		f.Failures = append(f.Failures, fmt.Sprintf("only %d observations", len(obs)))
	}
	if f.Fit.R2 < c.MinR2 {
		f.Failures = append(f.Failures, fmt.Sprintf("R² %.4f < required %.2f", f.Fit.R2, c.MinR2))
	}
	if c.SlopeLo != 0 || c.SlopeHi != 0 {
		if f.Fit.Slope < c.SlopeLo || f.Fit.Slope > c.SlopeHi {
			f.Failures = append(f.Failures, fmt.Sprintf("slope %.4f outside [%.3f, %.3f]", f.Fit.Slope, c.SlopeLo, c.SlopeHi))
		}
	}
	if c.InterceptMax > 0 {
		abs := f.Fit.Intercept
		if abs < 0 {
			abs = -abs
		}
		if abs > c.InterceptMax {
			f.Failures = append(f.Failures, fmt.Sprintf("|intercept| %.4f > allowed %.3f", abs, c.InterceptMax))
		}
	}
	if c.Monotone && !f.Monotone {
		f.Failures = append(f.Failures, "level means not monotone non-decreasing in x")
	}
	if len(f.Failures) == 0 {
		f.Status = "Corroborated"
	} else {
		f.Status = "Refuted"
	}
	return f
}

// binLevels averages y per distinct x, sorted by x.
func binLevels(obs []Obs) []Level {
	byX := map[float64]*Level{}
	for _, o := range obs {
		l := byX[o.X]
		if l == nil {
			l = &Level{X: o.X}
			byX[o.X] = l
		}
		l.MeanY += o.Y
		l.N++
	}
	levels := make([]Level, 0, len(byX))
	for _, l := range byX {
		l.MeanY /= float64(l.N)
		levels = append(levels, *l)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i].X < levels[j].X })
	return levels
}
