package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one workload x end-to-end metric comparison.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's repetitions in set b against set a, two
// sets of one seed (choosing-metrics §6.5). worsening is b's median
// against a's in the metric's bad direction, in the metric's unit; the
// threshold is the larger of bound.Rel of a's median and bound.Abs.
// Where the run-to-run spread of either side is wider than the
// threshold the medians cannot settle it: the verdict is then
// unresolved unless the runs are strictly ordered — every run of b
// better than every run of a (within) or every run worse and the
// medians apart by more than the threshold (worse).
func judge(a, b summary, better string, bound sameSeedBound) (verdict string, worsening float64) {
	sign := 1.0 // lower is better: growing is worse
	if better == "higher" {
		sign = -1
	}
	worsening = sign*(b.Median-a.Median) + 0 // + 0: an unchanged metric reads 0, not -0
	threshold := math.Max(bound.Rel*math.Abs(a.Median), bound.Abs)
	if math.Max(a.Q3-a.Q1, b.Q3-b.Q1) <= threshold {
		if worsening > threshold {
			return verdictWorse, worsening
		}
		return verdictWithin, worsening
	}
	aMin, aMax := minMax(a.Values)
	bMin, bMax := minMax(b.Values)
	allBetter, allWorse := bMax < aMin, bMin > aMax
	if better == "higher" {
		allBetter, allWorse = bMin > aMax, bMax < aMin
	}
	switch {
	case allBetter:
		return verdictWithin, worsening
	case allWorse && worsening > threshold:
		return verdictWorse, worsening
	}
	return verdictUnresolved, worsening
}

func (b sameSeedBound) String() string {
	switch {
	case b.Rel > 0 && b.Abs > 0:
		return fmt.Sprintf("%g%% & %g", 100*b.Rel, b.Abs)
	case b.Rel > 0:
		return fmt.Sprintf("%g%%", 100*b.Rel)
	}
	return fmt.Sprintf("%g", b.Abs)
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

func readSet(path string) (setFile, error) {
	var s setFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("decode %s: %w", path, err)
	}
	return s, nil
}

// compareSets prints one row per workload x end-to-end metric with both
// medians, the same-seed bound and the verdict, and returns 1 on any
// "worse". Sets of different seeds or scales did different work and are
// refused (2). A moved sim_digest is printed — it means the physics
// changed, which a speed-only change must not do — but is not itself a
// regression.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	for _, def := range workloadDefs {
		ta, tb := a.Workloads[def.Name].Timed, b.Workloads[def.Name].Timed
		if ta == nil || tb == nil {
			fmt.Fprintf(stderr, "benchmark: %s has no untraced result in one of the sets\n", def.Name)
			return 2
		}
		if ta.Seed != tb.Seed || ta.Scale != tb.Scale {
			fmt.Fprintf(stderr, "benchmark: %s ran at seed %d scale %g in %s and seed %d scale %g in %s: not the same work, nothing to compare\n",
				def.Name, ta.Seed, ta.Scale, pathA, tb.Seed, tb.Scale, pathB)
			return 2
		}
	}
	for _, s := range []setFile{a, b} {
		if s.Env.Loaded {
			fmt.Fprintf(stdout, "WARNING: set %s was taken at load average %.2f > nproc %d\n", s.Set, s.Env.LoadAvg1, s.Env.NProc)
		}
	}
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %12s %9s %12s  %s\n", "workload", "metric", a.Set, b.Set, "worsening", "", "bound", "verdict")
	worse := 0
	for _, def := range workloadDefs {
		ta, tb := a.Workloads[def.Name].Timed, b.Workloads[def.Name].Timed
		digest := "same"
		if ta.SimDigest != tb.SimDigest {
			digest = "DIFFERS (physics changed)"
		}
		fmt.Fprintf(stdout, "%-12s %-18s %14.12s %14.12s %12s %9s %12s  %s\n", def.Name, "sim_digest", ta.SimDigest, tb.SimDigest, "", "", "", digest)
		for _, d := range e2eDefs {
			verdict, by := judge(ta.E2E[d.Name], tb.E2E[d.Name], d.Better, d.Same)
			if verdict == verdictWorse {
				worse++
			}
			ma, mb := ta.E2E[d.Name].Median, tb.E2E[d.Name].Median
			share := 0.0
			if ma != 0 {
				share = by / math.Abs(ma)
			}
			fmt.Fprintf(stdout, "%-12s %-18s %14.6g %14.6g %+12.4g %+8.2f%% %12v  %s\n", def.Name, d.Name, ma, mb, by, 100*share, d.Same, verdict)
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d comparison(s) worse than the bound\n", worse)
		return 1
	}
	return 0
}
