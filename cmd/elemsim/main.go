// Command elemsim runs one ad-hoc scenario: a configurable path, N bulk
// flows, optionally one of them driven through ELEMENT, and prints the
// per-flow delay decomposition and throughput. It is the workhorse for
// exploring configurations outside the paper's fixed experiments.
//
// Example:
//
//	elemsim -bw 10 -rtt 50 -qdisc codel -flows 3 -element -dur 30
//	elemsim -profile lte -dir upload -flows 2 -element -minimize
//	elemsim -flows 3 -waterfall wf.json   # per-byte-range delay waterfall (Chrome trace)
//	elemsim -fanout 8 -arrivals bursty -rps 300 -reqtrace spans.json
//
// With -fanout N the bulk flows are replaced by one partition-aggregate
// fan-out group: every request issues one leg per backend connection and
// completes when the slowest leg's bytes are read. Each request is traced
// as a waterfall span tree; the run prints the per-stage tail report and
// -reqtrace exports the slowest span trees.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"element/internal/apps"
	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/cliutil"
	"element/internal/exp"
	"element/internal/netem"
	"element/internal/reqtrace"
	"element/internal/telemetry"
	"element/internal/units"
	"element/internal/waterfall"
)

func main() {
	var (
		bw       = flag.Float64("bw", 10, "bottleneck bandwidth (Mbps), ignored with -profile")
		rtt      = flag.Float64("rtt", 50, "base RTT (ms), ignored with -profile")
		profile  = flag.String("profile", "", "production profile: lan|cable|wifi|lte|wired-low-bw|wired-high-bw")
		dir      = flag.String("dir", "download", "data direction with -profile: download|upload")
		qdisc    = flag.String("qdisc", "pfifo_fast", "bottleneck qdisc: pfifo_fast|codel|fq_codel|pie|sfq")
		qlen     = flag.Int("qlen", 0, "bottleneck queue limit in packets (0 = default)")
		ecn      = flag.Bool("ecn", false, "enable ECN")
		loss     = flag.Float64("loss", 0, "random loss rate (0..1)")
		flows    = flag.Int("flows", 1, "number of bulk flows")
		algo     = flag.String("cc", "cubic", "congestion control: reno|cubic|vegas|bbr")
		element  = flag.Bool("element", false, "attach ELEMENT trackers to flow 1")
		minimize = flag.Bool("minimize", false, "run ELEMENT's latency minimization on flow 1")
		wireless = flag.Bool("wireless", false, "tell the minimizer the sender is on LTE/WiFi")
		dur      = flag.Float64("dur", 30, "simulated duration (seconds)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		faultsFl = cliutil.FaultsFlag("inject a fault profile: ")
		telOut   = cliutil.ExportFlag("telemetry", "write a telemetry export to this file, \"-\" = stdout (implies -element)",
			"trace-format", "chrome", "telemetry export format: chrome|jsonl|text", telemetry.ParseFormat)
		wfOut = cliutil.ExportFlag("waterfall", "write the per-byte-range delay waterfall to this file (\"-\" = stdout)",
			"waterfall-format", "chrome", "waterfall export format: chrome|jsonl|ascii", waterfall.ParseFormat)
		fanout   = flag.Int("fanout", 0, "replace bulk flows with one fan-out group of this degree (0 = bulk)")
		arrivals = flag.String("arrivals", "poisson", "fan-out arrival process: poisson|bursty|closed")
		rps      = flag.Float64("rps", 200, "fan-out arrival rate (requests/s)")
		reqBytes = flag.Int("req-bytes", 1024, "fan-out mean per-leg response size (bytes)")
		rtOut    = cliutil.ExportFlag("reqtrace", "write the slowest request span trees to this file, \"-\" = stdout (requires -fanout)",
			"reqtrace-format", "chrome", "span-tree export format: chrome|jsonl", reqtrace.ParseFormat)
		drainT = flag.Float64("drain-timeout", 0, "wall-clock budget in seconds for end-of-run file exports (0 = no limit); on expiry partial exports are marked truncated and the run exits non-zero")
	)
	flag.Parse()

	// Fail fast on bad values, exports and profiles before simulating
	// anything.
	_, qdiscErr := aqm.New(aqm.Kind(*qdisc), aqm.Config{}, nil)
	_, ccErr := cc.New(cc.Kind(*algo), 0, nil)
	var prof *netem.Profile
	var profErr, dirErr error
	if *profile != "" {
		p, err := netem.ProfileByName(*profile)
		prof, profErr = &p, err
	}
	if *dir != "download" && *dir != "upload" {
		dirErr = fmt.Errorf("unknown direction %q (have: download, upload)", *dir)
	}
	if err := cliutil.Validate(cliutil.Check("qdisc", qdiscErr), cliutil.Check("cc", ccErr),
		cliutil.Check("profile", profErr), cliutil.Check("dir", dirErr),
		telOut, wfOut, rtOut, faultsFl); err != nil {
		fmt.Fprintln(os.Stderr, "elemsim:", err)
		os.Exit(2)
	}

	var telem *telemetry.Telemetry
	if telOut.Path != "" {
		telem = telemetry.New()
		// Attach the trackers so the export carries core-component events;
		// attaching is passive and does not change flow behaviour.
		*element = true
	}

	var wf *waterfall.Waterfall
	if wfOut.Path != "" {
		wf = waterfall.New()
	}

	var (
		arrKind apps.ArrivalKind
		rt      *reqtrace.Tracer
	)
	if *fanout > 0 {
		var err error
		if arrKind, err = apps.ParseArrivals(*arrivals); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rt = reqtrace.New()
		// Request tracing joins waterfall-finalized byte ranges, so the
		// fan-out group needs recorders even without a -waterfall export;
		// then they retain nothing.
		if wf == nil {
			wf = waterfall.NewJoinOnly()
		}
	} else if rtOut.Path != "" {
		fmt.Fprintln(os.Stderr, "elemsim: -reqtrace requires -fanout")
		os.Exit(1)
	}

	cfg := exp.ScenarioConfig{
		Seed:         *seed,
		Rate:         units.Rate(*bw) * units.Mbps,
		RTT:          units.DurationFromSeconds(*rtt / 1000),
		Disc:         aqm.Kind(*qdisc),
		QueuePackets: *qlen,
		ECN:          *ecn,
		LossRate:     *loss,
		Duration:     units.DurationFromSeconds(*dur),
		Telemetry:    telem,
		Waterfall:    wf,
		Faults:       faultsFl.Profile,
		Profile:      prof,
	}
	if *dir == "upload" {
		cfg.Direction = netem.Upload
	}
	if *fanout > 0 {
		// One idle backend connection per leg; apps.RunFanout drives them.
		for i := 0; i < *fanout; i++ {
			cfg.Flows = append(cfg.Flows, exp.FlowSpec{CC: cc.Kind(*algo), Idle: true})
		}
	} else {
		for i := 0; i < *flows; i++ {
			spec := exp.FlowSpec{CC: cc.Kind(*algo)}
			if i == 0 {
				spec.Element = *element || *minimize
				spec.Minimize = *minimize
				spec.Wireless = *wireless
			}
			cfg.Flows = append(cfg.Flows, spec)
		}
	}

	// Ctrl-C stops the virtual clock at the next slice boundary; the
	// partial run is still reported and telemetry/waterfall exports are
	// still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := exp.Build(cfg)
	if *fanout > 0 {
		fc := apps.FanoutConfig{
			Tracer:       rt,
			RequestBytes: *reqBytes,
			SizeSpread:   0.5, // tail-at-scale partition heterogeneity
			Arrivals:     arrKind,
			RPS:          *rps,
			Duration:     cfg.Duration,
		}
		for i, f := range s.Flows {
			fc.Conns = append(fc.Conns, f.Conn)
			fc.Flows = append(fc.Flows, rt.Flow(i, f.WF))
		}
		apps.RunFanout(s.Eng, fc)
	}
	s.RunContext(ctx)
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "elemsim: interrupted at t=%.1fs — reporting the partial run\n",
			units.Duration(s.Eng.Now()).Seconds())
	}
	fmt.Printf("%-6s %-10s %12s %12s %12s %12s %12s\n",
		"flow", "cc", "snd(ms)", "net(ms)", "rcv(ms)", "total(ms)", "tput(Mbps)")
	for i, f := range s.Flows {
		fmt.Printf("%-6d %-10s %12.1f %12.1f %12.1f %12.1f %12.2f\n",
			i+1, *algo,
			f.GT.SenderDelay().Mean().Seconds()*1000,
			f.GT.NetworkDelay().Mean().Seconds()*1000,
			f.GT.ReceiverDelay().Mean().Seconds()*1000,
			f.TotalDelay().Seconds()*1000,
			f.GoodputBps/1e6)
	}
	if s.Inj != nil {
		fmt.Printf("\nfaults (%s): %d injected events\n", faultsFl.Name, s.Inj.Counts().Total())
	}
	if f := s.Flows[0]; f.Sender != nil {
		est := f.Sender.Estimates().Series()
		fmt.Printf("\nELEMENT flow 1: %d sender estimates, mean %.1f ms (truth %.1f ms)\n",
			len(est), est.Mean().Seconds()*1000, f.GT.SenderDelay().Mean().Seconds()*1000)
		if s.Inj != nil {
			sa, ra := f.Sender.Tracker.Anomalies(), f.Receiver.Tracker.Anomalies()
			fmt.Printf("tracker anomalies under faults: sender %d, receiver %d\n", sa.Total(), ra.Total())
		}
		if f.Sender.Min != nil {
			sleeps, total := f.Sender.Min.Sleeps()
			fmt.Printf("minimizer: target %d bytes, %d pacing sleeps totalling %v\n",
				f.Sender.Min.Target(), sleeps, total)
		}
	}
	guard := newDrainGuard(*drainT)
	if telem != nil {
		if guard.run("telemetry", func() error { return telOut.Write(telem.Export) }) {
			fmt.Printf("\ntelemetry: %d events (%d evicted) written to %s (%s)\n",
				telem.Tracer().Len(), telem.Tracer().Evicted(), telOut.Path, telOut.Format)
		}
	}
	if wfOut.Path != "" {
		if guard.run("waterfall", func() error { return wfOut.Write(wf.Export) }) {
			agg := wf.Aggregate()
			fmt.Printf("\nwaterfall: %d byte ranges over %d flows written to %s (%s); stage-sum residual %.4f%%\n",
				agg.Ranges, len(wf.Flows()), wfOut.Path, wfOut.Format, agg.Residual*100)
		}
	}
	if rt != nil {
		rp := rt.Report()
		fmt.Printf("\n--- tail report: %d requests (%d abandoned) ---\n",
			rt.Completed(), rt.Outstanding())
		rp.WriteTable(os.Stdout)
		if err := rp.CrossCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "reqtrace cross-check: %v\n", err)
			os.Exit(1)
		}
		if rtOut.Path != "" {
			if guard.run("reqtrace", func() error { return rtOut.Write(rt.Export) }) {
				fmt.Printf("reqtrace: %d slowest span trees -> %s (%s)\n",
					len(rt.Slowest()), rtOut.Path, rtOut.Format)
			}
		}
	}
	if guard.truncated {
		fmt.Fprintln(os.Stderr, "elemsim: exports truncated — drain timeout expired")
		os.Exit(1)
	}
}

// drainGuard bounds the end-of-run file exports by a shared wall-clock
// deadline. A stalled export destination (a FIFO nobody reads, a hung
// network filesystem) must not hang the run: when the budget expires the
// in-flight export is abandoned where it stands — the bytes already
// written are the partial flush — an explicit truncated marker goes to
// stderr, and the process exits non-zero.
type drainGuard struct {
	deadline  time.Time
	truncated bool
}

// newDrainGuard builds a guard for a budget of secs seconds; secs <= 0
// means no limit.
func newDrainGuard(secs float64) *drainGuard {
	g := &drainGuard{}
	if secs > 0 {
		g.deadline = time.Now().Add(time.Duration(secs * float64(time.Second)))
	}
	return g
}

// run executes one export under the shared deadline and reports whether
// it completed. Export errors stay fatal, exactly as they were without a
// guard; only deadline expiry downgrades to the truncated path.
func (g *drainGuard) run(name string, fn func() error) bool {
	if g.deadline.IsZero() {
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return true
	}
	remaining := time.Until(g.deadline)
	if remaining <= 0 {
		g.truncated = true
		fmt.Fprintf(os.Stderr, "elemsim: export %s truncated: drain timeout expired\n", name)
		return false
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return true
	case <-time.After(remaining):
		g.truncated = true
		fmt.Fprintf(os.Stderr, "elemsim: export %s truncated: drain timeout expired\n", name)
		return false
	}
}
