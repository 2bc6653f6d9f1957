// Package exp reproduces every table and figure of the paper's evaluation.
// Each experiment has a function returning a Result (rows and series that
// mirror what the paper reports) and is reachable three ways: directly, via
// cmd/elembench, and via the benchmarks in the repository root.
package exp

import (
	"context"

	"element/internal/apps"
	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/faults"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/telemetry"
	"element/internal/trace"
	"element/internal/units"
	"element/internal/waterfall"
)

// DefaultTelemetry, when non-nil, instruments every scenario whose config
// does not carry its own Telemetry. It exists for callers that run
// pre-registered experiments (whose Run functions build their own
// ScenarioConfigs) and still want metrics out — cmd/elembench sets it
// around each experiment.
var DefaultTelemetry *telemetry.Telemetry

// DefaultWaterfall plays the same role for the per-byte-range delay
// waterfall: when non-nil, every scenario without its own Waterfall
// attaches recorders to all flows and taps both path directions.
var DefaultWaterfall *waterfall.Waterfall

// DefaultFaults plays the same role for fault injection: when non-nil,
// every scenario without its own Faults profile runs under it —
// cmd/elembench sets it from -faults so pre-registered experiments can
// be rerun degraded.
var DefaultFaults *faults.Profile

// FlowSpec describes one flow in a scenario.
type FlowSpec struct {
	// CC is the congestion control algorithm (default cubic).
	CC cc.Kind
	// Element attaches the ELEMENT trackers to both ends.
	Element bool
	// Minimize additionally runs Algorithm 3 (implies Element).
	Minimize bool
	// Wireless passes the LTE/WiFi flag to Algorithm 3.
	Wireless bool
	// SndBuf pins SO_SNDBUF (0 = auto-tuning).
	SndBuf int
	// StartAt delays the flow's traffic start.
	StartAt units.Duration
	// Idle suppresses the bulk writer/reader pair; the caller drives the
	// connection itself (e.g. apps.RunFanout over several idle flows).
	Idle bool
}

// ScenarioConfig describes a network and a set of bulk flows over it.
type ScenarioConfig struct {
	Seed int64
	// Either Profile (production network) or Rate+RTT (controlled testbed)
	// defines the path.
	Profile   *netem.Profile
	Direction netem.Direction
	Rate      units.Rate
	RTT       units.Duration
	// Disc selects the bottleneck queueing discipline (default pfifo_fast)
	// and QueuePackets its depth (0 = discipline default).
	Disc         aqm.Kind
	QueuePackets int
	ECN          bool
	LossRate     float64
	// DynamicBW toggles the bottleneck between the two rates every Period.
	DynamicBW *DynamicBW
	Duration  units.Duration
	Flows     []FlowSpec
	// Telemetry instruments every layer of the scenario (sockbuf, tcp, aqm,
	// netem, core). Nil falls back to DefaultTelemetry; nil both disables
	// instrumentation entirely.
	Telemetry *telemetry.Telemetry
	// Waterfall attaches per-byte-range delay attribution to every flow
	// (recorder hooks on both sockets, taps on both link directions). Nil
	// falls back to DefaultWaterfall; nil both disables attribution.
	Waterfall *waterfall.Waterfall
	// Faults injects the given fault profile: degraded TCP_INFO for every
	// ELEMENT tracker, path chaos on the links, and app-level write/read
	// perturbation. Nil falls back to DefaultFaults; nil both runs the
	// polite simulator. The injector is seeded from Seed, so the whole
	// degraded run is reproducible.
	Faults *faults.Profile
}

// wanQueuePackets is the bottleneck buffer used by the controlled-testbed
// experiments. The paper's measured network delays (Table 1: 56 ms RTT on
// the loaded 10 Mbps/50 ms path) imply its WAN emulator buffered only a few
// dozen milliseconds; 100 packets (≈120 ms worst case at 10 Mbps) matches
// that regime, and is what lets the sender-side socket buffer — not the
// network queue — dominate the end-to-end delay, as in the paper.
const wanQueuePackets = 100

// wanQueueFor scales the emulator buffer with bandwidth — roughly 50 ms of
// packets, floored at wanQueuePackets — the usual way testbeds size token
// buckets so that sub-RTT bursts are absorbed without adding standing
// delay.
func wanQueueFor(rate units.Rate) int {
	q := int(rate.BytesPerSecond() * 0.050 / 1500)
	if q < wanQueuePackets {
		q = wanQueuePackets
	}
	return q
}

// DynamicBW is the §4.3 dynamic-bandwidth scenario.
type DynamicBW struct {
	Low, High units.Rate
	Period    units.Duration
}

// FlowResult carries everything measured about one flow.
type FlowResult struct {
	Spec     FlowSpec
	Conn     *stack.Conn
	GT       *trace.Collector
	Sender   *core.Sender   // nil unless Spec.Element
	Receiver *core.Receiver // nil unless Spec.Element
	// WF is the flow's waterfall recorder (nil when attribution is off).
	WF *waterfall.Recorder
	// GoodputBps is application goodput over the (active) run.
	GoodputBps float64
}

// TotalDelay reports the mean end-to-end (write→read) delay: sender +
// network + receiver ground truth.
func (f *FlowResult) TotalDelay() units.Duration {
	return f.GT.SenderDelay().Mean() + f.GT.NetworkDelay().Mean() + f.GT.ReceiverDelay().Mean()
}

// Scenario is a fully built testbed ready to run.
type Scenario struct {
	Eng   *sim.Engine
	Net   *stack.Net
	Path  *netem.Path
	Flows []*FlowResult
	// Inj is the scenario's fault injector (nil when no profile is
	// active); its Counts() are the audit trail the matrix tests compare
	// across same-seed runs.
	Inj *faults.Injector
	cfg ScenarioConfig
}

// Build constructs the engine, path and flows for cfg without running it.
func Build(cfg ScenarioConfig) *Scenario {
	eng := sim.New(cfg.Seed)
	telem := cfg.Telemetry
	if telem == nil {
		telem = DefaultTelemetry
	}
	telem.SetClock(eng.Now)
	wf := cfg.Waterfall
	if wf == nil {
		wf = DefaultWaterfall
	}
	wf.SetClock(eng.Now)
	var path *netem.Path
	if cfg.Profile != nil {
		path = cfg.Profile.Build(eng, netem.BuildOptions{
			Discipline: cfg.Disc,
			ECN:        cfg.ECN,
			Direction:  cfg.Direction,
		})
	} else {
		disc := aqm.MustNew(cfg.Disc, aqm.Config{LimitPackets: cfg.QueuePackets, ECN: cfg.ECN}, eng.Rand())
		path = netem.NewPath(eng, netem.PathConfig{
			Forward: netem.LinkConfig{
				Rate: cfg.Rate, Delay: cfg.RTT / 2, LossRate: cfg.LossRate, Discipline: disc,
			},
			Reverse: netem.LinkConfig{Rate: cfg.Rate, Delay: cfg.RTT / 2},
		})
	}
	if telem != nil {
		path.Forward.Instrument(telem.Scope("netem"), telem.Scope("aqm"))
		path.Reverse.Instrument(telem.Scope("netem.rev"), telem.Scope("aqm.rev"))
	}
	// Tap both directions so reverse flows are attributed too; the taps
	// dispatch per flow and ignore pure ACKs.
	wf.TapLink(path.Forward)
	wf.TapLink(path.Reverse)
	if telem != nil {
		wf.Instrument(telem.Scope("waterfall"))
	}
	if cfg.DynamicBW != nil {
		netem.StartDynamicBandwidth(eng, path.Forward, cfg.DynamicBW.Low, cfg.DynamicBW.High, cfg.DynamicBW.Period)
	}
	net := stack.NewNet(eng, path)
	s := &Scenario{Eng: eng, Net: net, Path: path, cfg: cfg}

	// Fault injection: the injector gets its own RNG stream derived from
	// the scenario seed (independent of the engine's), and its events are
	// bridged into telemetry and the waterfall notes. Path chaos must be
	// composed after stack.NewNet so the sink wrappers see the endpoints.
	prof := cfg.Faults
	if prof == nil {
		prof = DefaultFaults
	}
	if prof != nil && prof.Active() {
		inj := faults.New(eng, *prof, cfg.Seed+0x6661756c74) // "fault"
		faultSc := telem.Scope("faults")
		inj.OnEvent(func(ev faults.Event) {
			faultSc.Event(telemetry.SevWarn, ev.Kind, telemetry.Str("detail", ev.Detail))
			wf.Note("fault:"+ev.Kind, ev.Detail)
		})
		inj.ApplyPath(path)
		s.Inj = inj
	}

	for _, spec := range cfg.Flows {
		spec := spec
		// One stamp machine per connection: the flow's waterfall recorder
		// when attribution is on, else a private one for ground truth.
		rec := wf.NewFlow()
		var gt *trace.Collector
		if rec != nil {
			gt = trace.Of(rec)
		} else {
			gt = trace.New(eng)
		}
		conn := stack.Dial(net, stack.ConnConfig{
			CC:            spec.CC,
			SndBuf:        spec.SndBuf,
			ECN:           cfg.ECN,
			SenderHooks:   gt.SenderHooks(),
			ReceiverHooks: gt.ReceiverHooks(),
			Telem:         telem,
		})
		wf.Bind(conn.FlowID, rec)
		fr := &FlowResult{Spec: spec, Conn: conn, GT: gt, WF: rec}
		if spec.Element || spec.Minimize {
			fr.Sender = core.AttachSender(eng, conn.Sender, core.Options{
				Minimize: spec.Minimize,
				Wireless: spec.Wireless,
				Telem:    telem,
				Info:     s.Inj.WrapInfo(conn.Sender),
			})
			fr.Receiver = core.AttachReceiver(eng, conn.Receiver, core.Options{
				Telem: telem,
				Info:  s.Inj.WrapInfo(conn.Receiver),
			})
		}
		s.Flows = append(s.Flows, fr)

		if spec.Idle {
			continue
		}
		var w core.StreamWriter = conn.Sender
		var r core.StreamReader = conn.Receiver
		if fr.Sender != nil {
			w, r = core.Interposed{S: fr.Sender}, core.InterposedReader{R: fr.Receiver}
		}
		startApp := func() { apps.StartBulk(eng, w, r, apps.DefaultChunk, units.Time(cfg.Duration), s.Inj) }
		if spec.StartAt > 0 {
			eng.Schedule(spec.StartAt, startApp)
		} else {
			startApp()
		}
	}
	return s
}

// Run executes the scenario for its configured duration and fills in
// per-flow goodput.
func (s *Scenario) Run() { s.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: virtual time advances
// in slices so an interrupted run (Ctrl-C in the commands) stops at the
// next boundary with every collector, telemetry ring and waterfall
// recorder intact — partial results still export. It reports whether the
// run completed its configured duration.
func (s *Scenario) RunContext(ctx context.Context) bool {
	end := units.Time(s.cfg.Duration)
	slice := s.cfg.Duration / 64
	if slice <= 0 {
		slice = 100 * units.Millisecond
	}
	for s.Eng.Now() < end && ctx.Err() == nil {
		next := s.Eng.Now().Add(slice)
		if next > end {
			next = end
		}
		s.Eng.RunUntil(next)
	}
	s.finish()
	return s.Eng.Now() >= end
}

// finish fills in per-flow goodput over the time actually simulated and
// terminates all parked processes.
func (s *Scenario) finish() {
	ran := units.Duration(s.Eng.Now())
	stop := min(s.cfg.Duration, ran)
	for _, f := range s.Flows {
		active := stop - f.Spec.StartAt
		if active <= 0 {
			active = ran
		}
		f.GoodputBps = float64(f.Conn.Receiver.ReadCum()) * 8 / active.Seconds()
	}
	s.Eng.Shutdown()
}

// DefaultContext, when non-nil, bounds every RunScenario call — the
// pre-registered experiments build their own configs, so cmd/elembench
// sets this around a sweep to make Ctrl-C stop the current experiment at
// the next slice boundary while keeping its partial results exportable.
var DefaultContext context.Context

// RunScenario builds and runs cfg in one call, honoring DefaultContext.
func RunScenario(cfg ScenarioConfig) *Scenario { return RunScenarioContext(defaultContext(), cfg) }

// defaultContext is DefaultContext, or Background when it is unset.
func defaultContext() context.Context {
	if DefaultContext != nil {
		return DefaultContext
	}
	return context.Background()
}

// RunScenarioContext is RunScenario with cooperative cancellation.
func RunScenarioContext(ctx context.Context, cfg ScenarioConfig) *Scenario {
	s := Build(cfg)
	s.RunContext(ctx)
	return s
}
