// Command elemtrace prints the time-resolved delay decomposition of a
// single flow: ELEMENT's user-level estimates side by side with the kernel
// ground truth, in tab-separated columns suitable for plotting — the
// simulator's version of the paper's Figure 6 data collection.
//
// Example:
//
//	elemtrace -bw 10 -rtt 50 -dur 40 > trace.tsv
//	elemtrace -waterfall wf.json                   # Chrome trace of the delay waterfall
//	elemtrace -waterfall - -waterfall-format ascii # waterfall report on stdout
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/cliutil"
	"element/internal/exp"
	"element/internal/telemetry"
	"element/internal/units"
	"element/internal/waterfall"
)

func main() {
	var (
		bw       = flag.Float64("bw", 10, "bottleneck bandwidth (Mbps)")
		rtt      = flag.Float64("rtt", 50, "base RTT (ms)")
		qdisc    = flag.String("qdisc", "pfifo_fast", "bottleneck qdisc: pfifo_fast|codel|fq_codel|pie|sfq")
		algo     = flag.String("cc", "cubic", "congestion control: reno|cubic|vegas|bbr")
		dur      = flag.Float64("dur", 40, "simulated duration (seconds)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		faultsFl = cliutil.FaultsFlag("inject a fault profile: ")
		telOut   = cliutil.ExportFlag("telemetry", "also write a telemetry export to this file (\"-\" = stdout)",
			"trace-format", "chrome", "telemetry export format: chrome|jsonl|text", telemetry.ParseFormat)
		wfOut = cliutil.ExportFlag("waterfall", "write the per-byte-range delay waterfall to this file (\"-\" = stdout)",
			"waterfall-format", "chrome", "waterfall export format: chrome|jsonl|ascii", waterfall.ParseFormat)
	)
	flag.Parse()

	// Fail fast on bad values, exports and profiles before simulating
	// anything.
	_, qdiscErr := aqm.New(aqm.Kind(*qdisc), aqm.Config{}, nil)
	_, ccErr := cc.New(cc.Kind(*algo), 0, nil)
	if err := cliutil.Validate(cliutil.Check("qdisc", qdiscErr), cliutil.Check("cc", ccErr),
		telOut, wfOut, faultsFl); err != nil {
		fmt.Fprintln(os.Stderr, "elemtrace:", err)
		os.Exit(2)
	}

	var telem *telemetry.Telemetry
	if telOut.Path != "" {
		telem = telemetry.New()
	}
	var wf *waterfall.Waterfall
	if wfOut.Path != "" {
		wf = waterfall.New()
	}

	cfg := exp.ScenarioConfig{
		Seed:      *seed,
		Rate:      units.Rate(*bw) * units.Mbps,
		RTT:       units.DurationFromSeconds(*rtt / 1000),
		Disc:      aqm.Kind(*qdisc),
		Duration:  units.DurationFromSeconds(*dur),
		Flows:     []exp.FlowSpec{{CC: cc.Kind(*algo), Element: true}},
		Telemetry: telem,
		Waterfall: wf,
		Faults:    faultsFl.Profile,
	}
	// Ctrl-C stops the virtual clock at the next slice boundary; the
	// partial trace and any telemetry/waterfall exports are still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := exp.RunScenarioContext(ctx, cfg)
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "elemtrace: interrupted at t=%.1fs — writing the partial trace\n",
			units.Duration(s.Eng.Now()).Seconds())
	}
	f := s.Flows[0]

	if telem != nil {
		if err := telOut.Write(telem.Export); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if wf != nil {
		if err := wfOut.Write(wf.Export); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	// Element rows carry the estimator's self-reported confidence grade and
	// error bound; ground-truth rows have neither ("-").
	fmt.Fprintln(w, "# side\tt_seconds\tdelay_seconds\tsource\tconfidence\terr_bound_seconds")
	for _, x := range f.Sender.Estimates().Log() {
		fmt.Fprintf(w, "sender\t%.6f\t%.6f\telement\t%s\t%.6f\n",
			x.At.Seconds(), x.Delay.Seconds(), x.Confidence, x.ErrBound.Seconds())
	}
	for _, x := range f.GT.SenderDelay() {
		fmt.Fprintf(w, "sender\t%.6f\t%.6f\tactual\t-\t-\n", x.At.Seconds(), x.Delay.Seconds())
	}
	for _, x := range f.Receiver.Estimates().Log() {
		fmt.Fprintf(w, "receiver\t%.6f\t%.6f\telement\t%s\t%.6f\n",
			x.At.Seconds(), x.Delay.Seconds(), x.Confidence, x.ErrBound.Seconds())
	}
	for _, x := range f.GT.ReceiverDelay() {
		fmt.Fprintf(w, "receiver\t%.6f\t%.6f\tactual\t-\t-\n", x.At.Seconds(), x.Delay.Seconds())
	}
	for _, x := range f.GT.NetworkDelay() {
		fmt.Fprintf(w, "network\t%.6f\t%.6f\tactual\t-\t-\n", x.At.Seconds(), x.Delay.Seconds())
	}
}
