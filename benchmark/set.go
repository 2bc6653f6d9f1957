package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// setFile is one full set of runs: every workload's result from its own
// process, as written to <out>/<set>.json and read by -compare.
type setFile struct {
	Set       string                    `json:"set"`
	Seed      int64                     `json:"seed"`
	TakenAt   string                    `json:"taken_at"`
	Env       environment               `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runSet is the full-set mode. It re-executes this binary once per
// workload, one child at a time, so scale_lite's heap does not set the
// GC pacing of the workload after it and nothing competes with the
// process being measured.
func runSet(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.set == "" {
		o.set = fmt.Sprintf("set-seed%d", o.seed)
	}
	set := setFile{
		Set: o.set, Seed: o.seed, TakenAt: time.Now().UTC().Format(time.RFC3339),
		Env: readEnvironment(), Workloads: map[string]workloadResult{},
	}
	failed := false
	for _, def := range workloadDefs {
		result := workloadResult{}
		for trace := 0; trace <= o.trace; trace++ {
			r, err := runChild(self, def.Name, trace, o, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %d): %v\n", def.Name, trace, err)
				failed = true
			}
			if r.Timed != nil {
				result.Env, result.Timed = r.Env, r.Timed
			}
			if r.Traced != nil {
				result.Traced = r.Traced
			}
		}
		set.Workloads[def.Name] = result
	}

	path := filepath.Join(o.outDir, o.set+".json")
	if err := writeJSON(path, set); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printSet(stdout, set)
	fmt.Fprintf(stdout, "set written to %s\n", path)
	if failed {
		return 1
	}
	return 0
}

// runChild runs one workload process and reads back its detail file.
func runChild(self, workload string, trace int, o options, stdout, stderr io.Writer) (workloadResult, error) {
	var r workloadResult
	detail := filepath.Join(o.outDir, fmt.Sprintf(".detail-%s-%d.json", workload, trace))
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", o.outDir, "-detail", detail,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(detail)
	if err != nil {
		if runErr != nil {
			return r, runErr
		}
		return r, err
	}
	os.Remove(detail)
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("decode %s: %w", detail, err)
	}
	return r, runErr
}

func printSet(w io.Writer, set setFile) {
	fmt.Fprintf(w, "\nset %s (seed %d, %s, nproc=%d, loadavg=%.2f)\n", set.Set, set.Seed, set.Env.GoVersion, set.Env.NProc, set.Env.LoadAvg1)
	if set.Env.Loaded {
		fmt.Fprintf(w, "WARNING: taken at load average %.2f > nproc %d; timings are suspect\n", set.Env.LoadAvg1, set.Env.NProc)
	}
	fmt.Fprintf(w, "%-12s %-17s", "workload", "sim_digest")
	for _, d := range e2eDefs {
		fmt.Fprintf(w, " %17s", d.Name)
	}
	fmt.Fprintln(w)
	for _, def := range workloadDefs {
		t := set.Workloads[def.Name].Timed
		if t == nil {
			fmt.Fprintf(w, "%-12s (no result)\n", def.Name)
			continue
		}
		fmt.Fprintf(w, "%-12s %-17s", def.Name, t.SimDigest)
		for _, d := range e2eDefs {
			fmt.Fprintf(w, " %17.6g", t.E2E[d.Name].Median)
		}
		fmt.Fprintln(w)
	}
}
