package benchgate

import "fmt"

// The gate's noise budget on allocs/op. Allocation counts are
// machine-independent, so the fractional budget is small. The absolute
// slack admits the stray runtime allocation (a timer, a GC worker) that
// lands inside a -benchtime 1x iteration and is counted whole: it reads
// 1–5 allocs/op against a zero baseline in about half of full runs. The
// exact-zero contract of the allocation-free hot paths is held by their
// packages' AllocsPerRun tests, which average such a stray away.
const (
	allocFrac  = 0.25
	allocSlack = 5
)

// Regression is one gate violation.
type Regression struct {
	Pkg    string
	Name   string
	Metric string // "allocs/op" or "missing"
	// Baseline/Current/Limit are the committed value, the fresh value,
	// and the largest fresh value the tolerance would have admitted.
	Baseline float64
	Current  float64
	Limit    float64
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s %s: in baseline but not in this run", r.Pkg, r.Name)
	}
	return fmt.Sprintf("%s %s: %s %.6g exceeds limit %.6g (baseline %.6g)",
		r.Pkg, r.Name, r.Metric, r.Current, r.Limit, r.Baseline)
}

// Compare gates current against baseline and returns every violation,
// sorted baseline-order. Benchmarks are matched by (pkg, name); a
// benchmark the baseline records but the current run lacks is itself a
// regression (a silently deleted benchmark would otherwise retire its
// own gate), while benchmarks new in the current run pass freely — they
// enter the gate when the baseline is next regenerated.
func Compare(baseline, current *Snapshot) []Regression {
	cur := make(map[string]Result, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[r.Pkg+" "+r.Name] = r
	}
	var regs []Regression
	for _, base := range baseline.Benchmarks {
		now, ok := cur[base.Pkg+" "+base.Name]
		if !ok {
			regs = append(regs, Regression{Pkg: base.Pkg, Name: base.Name, Metric: "missing"})
			continue
		}
		if base.AllocsPerOp != nil && now.AllocsPerOp != nil {
			limit := *base.AllocsPerOp*(1+allocFrac) + allocSlack
			if *now.AllocsPerOp > limit {
				regs = append(regs, Regression{
					Pkg: base.Pkg, Name: base.Name, Metric: "allocs/op",
					Baseline: *base.AllocsPerOp, Current: *now.AllocsPerOp, Limit: limit,
				})
			}
		}
	}
	return regs
}
