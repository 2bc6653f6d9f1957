// Command benchmark is the repository's benchmark: five named
// workloads, eight end-to-end metrics and a per-layer cost waterfall of
// ELEMENT itself. It calls only public entry points of the internal
// packages. See README.md in this directory for the catalogue and the
// noise protocol, and BENCHMARK.json at the repository root for the
// contract the acceptance driver holds it to.
//
// Usage (from the repository root):
//
//	go run ./benchmark                         # a full set: every workload, one process each
//	go run ./benchmark -trace 1                # the same plus the traced pass
//	go run ./benchmark -workload bulk_clean -seed 3 -seconds 12 -trace 0
//	go run ./benchmark -compare a.json b.json  # two sets, one verdict per workload x metric
//	go run ./benchmark -quick                  # 1/20 scale, 1 repetition: a smoke test
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	compare  bool
	outDir   string
	set      string
	detail   string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames(), "|")+" (empty = a full set, one child process per workload)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the only workload input")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "keep running timed repetitions until this many seconds have passed (never fewer than 5 repetitions)")
	fs.IntVar(&o.trace, "trace", 0, "0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics, trace-<workload>.jsonl and cpu-<workload>.pprof")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: every workload at 1/20 scale, 1 repetition")
	fs.BoolVar(&o.compare, "compare", false, "compare two set files: -compare a.json b.json; exits non-zero on any 'worse'")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for set files, span traces and CPU profiles")
	fs.StringVar(&o.set, "set", "", "name of the set file a full run writes, <out>/<set>.json (default set-seed<seed>)")
	fs.StringVar(&o.detail, "detail", "", "with -workload: also write this process's full result (quartiles, raw repetitions, digest) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}

	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two set files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	case o.workload == "":
		return runSet(o, stdout, stderr)
	}

	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	return runWorkload(w, o, stdout, stderr)
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}

// workloadResult is one workload process's full output: the untraced
// result always, the traced one when -trace 1.
type workloadResult struct {
	Env    environment   `json:"env"`
	Timed  *timedResult  `json:"timed,omitempty"`
	Traced *tracedResult `json:"traced,omitempty"`
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload is the single-workload process: the acceptance driver's
// entry point and the child of a full set.
func runWorkload(w workload, o options, stdout, stderr io.Writer) int {
	cfg := runConfig{w: w, seed: o.seed, scale: 1, seconds: o.seconds, minReps: minTimedReps, setupSamples: setupSamples}
	if o.quick {
		cfg.scale, cfg.seconds, cfg.minReps, cfg.setupSamples = quickScale, 0, 1, 1
	}
	env := readEnvironment()
	env.print(stdout)

	result := workloadResult{Env: env}
	line := resultLine{Metrics: map[string]metricValue{}}
	var failedChecks []string
	if o.trace == 0 {
		t := runTimed(cfg)
		result.Timed = t
		printTimed(stdout, t)
		line.Correct, line.Attempted, line.Failed = t.Correct, t.Attempted, t.Failed
		for _, d := range e2eDefs {
			line.Metrics[d.Name] = metricValue{t.E2E[d.Name].Median, d.Unit}
		}
		failedChecks = t.FailedChecks
	} else {
		t, err := runTraced(cfg, o.outDir)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		result.Traced = t
		printTraced(stdout, t)
		line.Correct, line.Attempted, line.Failed = t.Correct, t.Attempted, t.Failed
		for _, d := range layerDefs {
			line.Metrics[d.Name] = metricValue{t.Layers[d.Name], d.Unit}
		}
		failedChecks = t.FailedChecks
	}
	for _, c := range failedChecks {
		fmt.Fprintln(stderr, "benchmark: CHECK FAILED:", c)
	}

	if o.detail != "" {
		if err := writeJSON(o.detail, result); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// quickScale is -quick's size: every workload at 1/20.
const quickScale = 1.0 / 20

func printTimed(w io.Writer, t *timedResult) {
	fmt.Fprintf(w, "workload %s seed %d: %d timed repetitions after 1 warm-up, %.0f flow-s each, run phase median %.3f s\n",
		t.Workload, t.Seed, t.Reps, t.FlowSeconds, t.RunS.Median)
	fmt.Fprintf(w, "config: %s\nsim_digest %s\n", defOf(t.Workload).Config, t.SimDigest)
	for _, d := range e2eDefs {
		s := t.E2E[d.Name]
		fmt.Fprintf(w, "  %-20s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%-3d%s  %s\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N, tailNote(s), d.What)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; gc cpu %.3f of run\n", t.Attempted, t.Failed, t.GCCPUFrac)
}

// tailNote reports the highest percentile the sample count resolves
// (at least ten samples beyond it); most repetition counts resolve none,
// and saying so beats printing a p99 that rests on one point.
func tailNote(s summary) string {
	p, ok := highestResolvedPercentile(s.N)
	if !ok {
		return ""
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	return fmt.Sprintf(" p%g %.6g", p*100, percentile(sorted, p))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
