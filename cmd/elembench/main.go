// Command elembench regenerates the paper's tables and figures.
//
// Usage:
//
//	elembench                    # run every experiment
//	elembench -run fig13         # run one experiment
//	elembench -run fig2,fig6     # run a comma-separated subset
//	elembench -list              # list experiment IDs with descriptions
//	elembench -seed 7 -dur 60    # override seed and per-run duration (seconds)
//	elembench -metrics-summary   # print telemetry counters after each run
//	elembench -waterfall         # print per-stage delay attribution after each run
//	elembench -faults stale-info # run every scenario under a fault profile
//
// elembench exits non-zero when any experiment fails mid-run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"element/internal/cliutil"
	"element/internal/exp"
	// Registers the "conformance" experiment (hypothesis harness +
	// bound calibration) into the experiment registry.
	_ "element/internal/hypotheses"
	"element/internal/telemetry"
	"element/internal/units"
	"element/internal/waterfall"
)

func main() {
	var (
		runID    = flag.String("run", "", "comma-separated experiment ids to run (empty = all)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		seed     = flag.Int64("seed", 1, "simulation seed")
		dur      = flag.Float64("dur", 0, "per-run simulated duration in seconds (0 = experiment default)")
		markdown = flag.Bool("md", false, "emit GitHub-flavoured markdown (for EXPERIMENTS.md)")
		metrics  = flag.Bool("metrics-summary", false, "print a telemetry metrics snapshot after each experiment")
		waterfal = flag.Bool("waterfall", false, "print the per-stage delay waterfall attribution after each experiment")
		faultsFl = cliutil.FaultsFlag("run every scenario under a fault profile: ")
	)
	flag.Parse()

	if err := cliutil.Validate(faultsFl); err != nil {
		fmt.Fprintln(os.Stderr, "elembench:", err)
		os.Exit(2)
	}
	exp.DefaultFaults = faultsFl.Profile

	if *list {
		for _, e := range exp.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
			if e.Desc != "" {
				fmt.Printf("         %s\n", e.Desc)
			}
		}
		return
	}

	// Ctrl-C stops the in-flight experiment at the next slice boundary
	// (its partial tables, metrics and waterfall still print) and skips
	// the rest of the sweep.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	exp.DefaultContext = ctx

	duration := units.DurationFromSeconds(*dur)
	failed := 0
	run := func(e exp.Experiment) {
		if ctx.Err() != nil {
			return
		}
		defer func() {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "elembench: interrupted during %s — results above are partial\n", e.ID)
			}
		}()
		// A panicking experiment must not take down the rest of the sweep —
		// report it, mark the run failed, and keep going so one bad
		// configuration still yields every other table.
		defer func() {
			if r := recover(); r != nil {
				failed++
				fmt.Fprintf(os.Stderr, "elembench: experiment %s panicked: %v\n", e.ID, r)
			}
		}()
		// Experiments build their own ScenarioConfigs, so metrics are
		// injected via the package-level fallback: a fresh Telemetry per
		// experiment keeps the snapshots from bleeding into each other.
		if *metrics {
			exp.DefaultTelemetry = telemetry.New()
		}
		if *waterfal {
			exp.DefaultWaterfall = waterfall.New()
		}
		var memBefore runtime.MemStats
		if *metrics {
			runtime.ReadMemStats(&memBefore)
		}
		start := time.Now()
		res := e.Run(*seed, duration)
		elapsed := time.Since(start)
		if *markdown {
			fmt.Print(res.Markdown())
		} else {
			fmt.Print(res.Render())
			fmt.Printf("(%s wall-clock)\n\n", elapsed.Round(time.Millisecond))
		}
		if *metrics {
			var memAfter runtime.MemStats
			runtime.ReadMemStats(&memAfter)
			fmt.Printf("--- metrics (%s) ---\n", e.ID)
			printCost(elapsed, memAfter.Mallocs-memBefore.Mallocs,
				memAfter.TotalAlloc-memBefore.TotalAlloc, pollCount(exp.DefaultTelemetry))
			if err := exp.DefaultTelemetry.Export(os.Stdout, telemetry.FormatText); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "elembench: metrics export (%s): %v\n", e.ID, err)
			}
			fmt.Println()
			exp.DefaultTelemetry = nil
		}
		if *waterfal {
			agg := exp.DefaultWaterfall.Aggregate()
			fmt.Printf("--- waterfall (%s): %d flows, %d byte ranges ---\n",
				e.ID, len(exp.DefaultWaterfall.Flows()), agg.Ranges)
			agg.WriteTable(os.Stdout)
			fmt.Println()
			exp.DefaultWaterfall = nil
		}
	}

	if *runID != "" {
		var selected []exp.Experiment
		for _, id := range strings.Split(*runID, ",") {
			e, err := exp.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintf(os.Stderr, "elembench: unknown experiment %q\n\nregistered experiments:\n", strings.TrimSpace(id))
				for _, e := range exp.Registry {
					fmt.Fprintf(os.Stderr, "  %-8s %s — %s\n", e.ID, e.Title, e.Desc)
				}
				os.Exit(1)
			}
			selected = append(selected, e)
		}
		for _, e := range selected {
			run(e)
		}
		exitIfFailed(failed)
		return
	}
	for _, e := range exp.Registry {
		run(e)
	}
	exitIfFailed(failed)
}

// pollCount sums the tracker poll counters out of a run's telemetry, the
// natural "op" to normalize the run's cost by: one poll is one iteration
// of the Algorithm 1/2 tracking thread, the hot path the paper's
// overhead argument is about.
func pollCount(telem *telemetry.Telemetry) uint64 {
	if telem == nil {
		return 0
	}
	var polls float64
	for _, c := range telem.Registry().Counters() {
		if c.Name == "snd_polls" || c.Name == "rcv_polls" {
			polls += c.Value()
		}
	}
	return uint64(polls)
}

// printCost reports the run's measured cost as ns/op and allocs/op —
// benchmark-style, normalized per tracker poll. The fleet-backed
// experiments publish no poll counters, so there it prints totals only.
func printCost(elapsed time.Duration, mallocs, bytes, polls uint64) {
	if polls == 0 {
		fmt.Printf("cost: %d allocs, %d B total (%s wall-clock, no tracker polls to normalize by)\n",
			mallocs, bytes, elapsed.Round(time.Millisecond))
		return
	}
	ns := float64(elapsed.Nanoseconds()) / float64(polls)
	fmt.Printf("cost: %.0f ns/op, %.1f allocs/op, %.0f B/op over %d tracker polls\n",
		ns, float64(mallocs)/float64(polls), float64(bytes)/float64(polls), polls)
}

// exitIfFailed turns mid-sweep failures into a non-zero exit so CI and
// scripts notice a partially-failed run instead of trusting its output.
func exitIfFailed(failed int) {
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "elembench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
