package hypotheses

import (
	"fmt"
	"sync"
)

// The conformance runner: every (hypothesis × seed) sweep cell and every
// (profile × seed) calibration cell is an independent deterministic
// simulation, so the runner fans them out over a worker pool and collects
// results into a task-indexed slice. Rendering happens sequentially over
// that slice, which makes the output byte-identical for any shard count —
// the seed-sweep determinism test pins this.

// Config selects what the conformance run covers.
type Config struct {
	// Seeds are the simulation seeds (default 1..5; the conformance gate
	// requires at least 5).
	Seeds []int64
	// Short selects the reduced sweeps and durations (make conformance-short).
	Short bool
	// Shards is the worker-pool size (default 1). Any value produces
	// byte-identical output.
	Shards int
	// Hypotheses filters the registry by name (empty = all).
	Hypotheses []string
	// Profiles filters the calibration profiles (empty = all
	// estimator-relevant ones). SkipCalibration drops the harness entirely.
	Profiles        []string
	SkipCalibration bool
}

// DefaultSeeds are the gate's seed set.
var DefaultSeeds = []int64{1, 2, 3, 4, 5}

// Report is the complete conformance verdict: one finding per hypothesis
// plus the bound-calibration result.
type Report struct {
	Mode        string       `json:"mode"` // "full" | "short"
	Seeds       []int64      `json:"seeds"`
	Findings    []*Finding   `json:"hypotheses"`
	Calibration *Calibration `json:"calibration,omitempty"`
	Pass        bool         `json:"pass"`
	Failures    []string     `json:"failures,omitempty"`
}

type task struct {
	hyp     *Hypothesis // nil for calibration tasks
	profile string
	seed    int64
}

type taskResult struct {
	obs  []Obs
	cell CalibCell
	err  error
}

// Run executes the configured conformance suite.
func Run(cfg Config) (*Report, error) {
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = DefaultSeeds
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	hyps, err := selectHypotheses(cfg.Hypotheses)
	if err != nil {
		return nil, err
	}
	profiles := cfg.Profiles
	if cfg.SkipCalibration {
		profiles = nil
	} else if len(profiles) == 0 {
		profiles = CalibrationProfiles()
	}

	// Task list in deterministic order: hypothesis cells first, then
	// calibration cells, each seed-major.
	var tasks []task
	for i := range hyps {
		for _, seed := range seeds {
			tasks = append(tasks, task{hyp: &hyps[i], seed: seed})
		}
	}
	for _, prof := range profiles {
		for _, seed := range seeds {
			tasks = append(tasks, task{profile: prof, seed: seed})
		}
	}

	results := make([]taskResult, len(tasks))
	idx := make(chan int, len(tasks))
	for i := range tasks {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t := tasks[i]
				if t.hyp != nil {
					results[i].obs = collect(*t.hyp, t.seed, cfg.Short)
				} else {
					results[i].cell, results[i].err = calibrateCell(t.profile, t.seed, cfg.Short)
				}
			}
		}()
	}
	wg.Wait()

	rep := &Report{Mode: modeName(cfg.Short), Seeds: append([]int64(nil), seeds...)}
	pos := 0
	for i := range hyps {
		var obs []Obs
		for range seeds {
			obs = append(obs, results[pos].obs...)
			pos++
		}
		f := judge(hyps[i], seeds, obs)
		rep.Findings = append(rep.Findings, f)
		if !f.Corroborated() {
			for _, fail := range f.Failures {
				rep.Failures = append(rep.Failures, f.Name+": "+fail)
			}
		}
	}
	if len(profiles) > 0 {
		var cells []CalibCell
		for range profiles {
			for range seeds {
				if err := results[pos].err; err != nil {
					return nil, err
				}
				cells = append(cells, results[pos].cell)
				pos++
			}
		}
		rep.Calibration = judgeCalibration(profiles, seeds, cells)
		rep.Failures = append(rep.Failures, rep.Calibration.Failures...)
	}
	rep.Pass = len(rep.Failures) == 0
	return rep, nil
}

func selectHypotheses(names []string) ([]Hypothesis, error) {
	if len(names) == 0 {
		return Registry, nil
	}
	var out []Hypothesis
	for _, name := range names {
		h, err := Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

func modeName(short bool) string {
	if short {
		return "short"
	}
	return "full"
}

// Summary is a one-line human verdict for logs and experiment tables.
func (r *Report) Summary() string {
	corr := 0
	for _, f := range r.Findings {
		if f.Corroborated() {
			corr++
		}
	}
	s := fmt.Sprintf("%d/%d hypotheses corroborated", corr, len(r.Findings))
	if r.Calibration != nil {
		s += fmt.Sprintf(", calibration over %d profiles: pass=%v", len(r.Calibration.Profiles), r.Calibration.Pass)
	}
	return s
}
