// Command benchsmoke runs every benchmark exactly once (-benchtime 1x)
// and writes a machine-readable BENCH_<date>.json snapshot of what one
// iteration supports: allocs/op, B/op and the domain metrics each
// benchmark reports (see internal/benchgate; ns/op is not recorded). It
// is the quick before/after comparison tool behind `make bench-smoke`,
// and the JSON diffs cleanly across commits.
//
// With -gate, the same run is also compared against a committed baseline
// snapshot — allocs/op within +25 % and 5 of the baseline, no benchmark
// missing — and benchsmoke exits non-zero on any regression, after
// writing the snapshot. `make bench-gate` wires this against
// BENCH_baseline.json.
//
// Usage:
//
//	benchsmoke                         # writes BENCH_2006-01-02.json in the cwd
//	benchsmoke -o smoke.json           # explicit output path
//	benchsmoke -benchtime 5x           # more iterations, same format
//	benchsmoke -gate BENCH_baseline.json   # also gate the run against a baseline
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"element/internal/benchgate"
	"element/internal/cliutil"
)

func main() {
	var (
		out       = flag.String("o", "", "output path (default BENCH_<date>.json)")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value")
		pattern   = flag.String("bench", ".", "go test -bench pattern")
		gate      = flag.String("gate", "", "baseline snapshot to gate the run against")
	)
	flag.Parse()

	// Fail fast before the (slow) benchmark run: the snapshot destination
	// and the baseline must both be reachable.
	if err := cliutil.ValidateOutputPath("o", *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(2)
	}
	if err := cliutil.ValidateInputPath("gate", *gate); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(2)
	}

	var baseline *benchgate.Snapshot
	if *gate != "" {
		// Load before the (slow) benchmark run so a bad path fails fast.
		var err error
		baseline, err = benchgate.Load(*gate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsmoke: baseline: %v\n", err)
			os.Exit(1)
		}
	}

	// -run '^$' skips the unit tests; benchmarks still run.
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", *pattern, "-benchtime", *benchtime, "-benchmem", "./...")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: go test: %v\n", err)
		os.Exit(1)
	}

	benchmarks, err := benchgate.ParseGoBench(&buf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: parsing bench output: %v\n", err)
		os.Exit(1)
	}
	if len(benchmarks) == 0 {
		// go test succeeded but produced no benchmark lines: the pattern
		// matched nothing (or the output format changed) — either way the
		// snapshot would be an empty lie.
		fmt.Fprintf(os.Stderr, "benchsmoke: no benchmarks matched -bench %q\n", *pattern)
		os.Exit(1)
	}

	snap := &benchgate.Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchtime:  *benchtime,
		Benchmarks: benchmarks,
	}

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().Format("2006-01-02") + ".json"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
		os.Exit(1)
	}
	if err := snap.Write(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchsmoke: %d benchmarks written to %s\n", len(snap.Benchmarks), path)

	if baseline != nil {
		regs := benchgate.Compare(baseline, snap)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchsmoke: %d benchmark regression(s) against %s:\n", len(regs), *gate)
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("benchsmoke: %d benchmarks within tolerance of %s\n", len(snap.Benchmarks), *gate)
	}
}
