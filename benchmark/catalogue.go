package main

// The catalogue is the single list of names the benchmark prints.
// BENCHMARK.json at the repository root declares the same names;
// TestCatalogueMatchesBenchmarkJSON fails on any drift in either
// direction. README.md carries the prose version of these tables.

// shards is pinned rather than left to GOMAXPROCS so the same seed does
// the same work on any machine; 2 is the core count of the box the
// workloads were sized on.
const shards = 2

type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// "why"); Config is its public-API configuration in words.
	Why    string
	Config string
}

var workloadDefs = []workloadDef{
	{
		Name:   "bulk_clean",
		Why:    "simulator fast path only (bulk transfer, in order but for 70 slow-start tail drops): sim+netem+aqm+tcp+sockbuf+trace do nearly all the work, trackers about 4 %",
		Config: "exp.ScenarioConfig: 4 cubic flows {Element}, 100 Mbps, RTT 20 ms, aqm.KindFIFO, no random loss, 30 sim-s, no waterfall/telemetry",
	},
	{
		Name:   "lossy_mixed",
		Why:    "same layers on the TCP slow path: BBR overdrives CoDel (a fifth of segments retransmitted), SACK recovery with large windows, waterfall and telemetry attached",
		Config: "exp.ScenarioConfig: 50 Mbps, RTT 40 ms, aqm.KindCoDel, no random loss (see README: Deviations), flows cubic{Element} cubic{Minimize} bbr{Element} reno{Element}, Waterfall+Telemetry, 12 sim-s",
	},
	{
		Name:   "fanout_rpc",
		Why:    "app-limited short legs over 64 connections: proc wake-ups and full trackers dominate instead of per-packet work; waterfall and reqtrace do their most work here",
		Config: "fleet.Config: 64 conns = 8 groups x Fanout{Degree 8, RPS 500, RequestBytes 256, Tracer}, links at 75 % utilisation, RTT 20 ms, CoDel, 6 sim-s, open loop (Poisson)",
	},
	{
		Name:   "fleet_churn",
		Why:    "the always-on deployment: full trackers, checkpoints, supervisor restarts, stream seal/merge, overload governor and export queue at every barrier",
		Config: "fleet.Config: 256 conns, 4 Mbps, RTT 40 ms, Interval 10 ms, Churn{OpenWindow 1.5 s, Close .1, Crash .1, Stall .05}, Stream{Window 250 ms, P99Above 100 ms}, Overload{RetainedSamples 40000}, ExportQueue{}, Waterfall, 6 sim-s",
	},
	{
		Name:   "scale_lite",
		Why:    "the lite monitoring plane alone: core.LitePoll over the timer wheel, SoA columns and sketch merge; the simulator layers do nothing",
		Config: "fleet.ScaleConfig: 400000 flows, 6 sim-s, Interval 100 ms, EscalateAbove -1 (escalation off; it is exercised in fleet_churn)",
	},
}

// e2eDef is one end-to-end metric, with two regression bounds.
//
// Bound is BENCHMARK.json's: the share of the parent's median by which
// the metric may worsen before the acceptance driver rejects a change.
// The driver compares runs across seeds, so it is as wide as the seed
// moves the metric.
//
// Same is -compare's, for two sets of one seed, where the counts and the
// simulated statistics repeat almost exactly and a far smaller change
// resolves: worse means the median worsened by more than Same.Rel of
// the first set's median and by more than Same.Abs in the metric's unit.
type e2eDef struct {
	Name, Unit, Better string
	Bound              float64
	Same               sameSeedBound
	What               string
}

type sameSeedBound struct{ Rel, Abs float64 }

var e2eDefs = []e2eDef{
	// Setup is 20 us to 16 ms today: a quarter of 20 us is host noise, so
	// only a regression of 10 ms or more counts.
	{"setup_s", "s", "lower", 0.25, sameSeedBound{0.25, 0.010}, "median wall seconds of the setup phase (exp.Build / fleet.New / fleet.NewScale)"},
	// Wall time drifts up to 12 % between processes on the box this was
	// written on; the counts below are the precise signals.
	{"flow_s_per_s", "1/s", "higher", 0.25, sameSeedBound{Rel: 0.25}, "flow-seconds (flows x simulated seconds) completed per wall second of the run phase"},
	{"allocs_per_flow_s", "count", "lower", 0.06, sameSeedBound{Rel: 0.01}, "runtime.MemStats.Mallocs delta over the run phase per flow-second"},
	{"bytes_per_flow_s", "B", "lower", 0.06, sameSeedBound{Rel: 0.02}, "runtime.MemStats.TotalAlloc delta over the run phase per flow-second"},
	{"retained_mb", "MB", "lower", 0.08, sameSeedBound{Rel: 0.05}, "HeapAlloc after a forced GC with the result (and fleet) still referenced"},
	{"ok_frac", "frac", "higher", 0.001, sameSeedBound{}, "1 - failed/attempted operations; a failed correctness check fails every operation of its repetition"},
	{"unflagged_frac", "frac", "higher", 0.04, sameSeedBound{Abs: 0.005}, "1 - flagged/graded estimator samples (1 where nothing is graded)"},
	{"est_accuracy_frac", "frac", "higher", 0.02, sameSeedBound{Abs: 0.005}, "the paper's accuracy figure: 1 - mean|sender estimate - ground truth| / mean ground truth (1 where nothing is graded)"},
}

// layerDef is one per-layer metric. Moves says which end-to-end metric
// on which workload a change to it should move — written down before
// anything is optimised (choosing-metrics §3) and printed beside the
// value in the traced pass.
type layerDef struct {
	Name, Layer, Unit, Better string
	Moves                     string
}

var layerDefs = []layerDef{
	{"sim.events", "sim", "count", "lower", "flow_s_per_s @ bulk_clean, lossy_mixed"},
	{"sim.event_ns", "sim", "ns", "lower", "flow_s_per_s, allocs_per_flow_s @ bulk_clean, lossy_mixed; none @ scale_lite"},
	{"sim.event_allocs", "sim", "count", "lower", "allocs_per_flow_s @ bulk_clean, lossy_mixed"},
	{"sim.switch_ns", "sim", "ns", "lower", "flow_s_per_s mostly @ fanout_rpc"},

	{"netem.pkts", "netem", "count", "lower", "flow_s_per_s @ every simulator workload"},
	{"netem.lost", "netem", "count", "lower", "physics: must not move under a speed-only change"},
	{"netem.delivered_frac", "netem", "frac", "higher", "physics: must not move under a speed-only change"},
	{"netem.send_ns", "netem", "ns", "lower", "flow_s_per_s @ bulk_clean, lossy_mixed (a whole link crossing: its two engine events and closures included)"},
	{"netem.send_allocs", "netem", "count", "lower", "allocs_per_flow_s @ bulk_clean"},
	{"aqm.fifo_ns", "aqm", "ns", "lower", "flow_s_per_s @ bulk_clean, fleet_churn"},
	{"aqm.codel_ns", "aqm", "ns", "lower", "flow_s_per_s @ lossy_mixed, fanout_rpc"},
	{"aqm.drops", "aqm", "count", "lower", "physics: must not move under a speed-only change"},

	{"tcp.seg_ns", "tcp", "ns", "lower", "flow_s_per_s @ bulk_clean"},
	{"tcp.seg_allocs", "tcp", "count", "lower", "allocs_per_flow_s @ bulk_clean"},
	{"tcp.seg_lossy_ns", "tcp", "ns", "lower", "flow_s_per_s @ lossy_mixed only (prediction on bulk_clean: no change)"},
	{"tcp.retrans", "tcp", "count", "lower", "physics: must not move under a speed-only change"},
	{"tcp.retrans_frac", "tcp", "frac", "lower", "flow_s_per_s @ lossy_mixed only"},
	{"tcp.rto_fires", "tcp", "count", "lower", "physics: must not move under a speed-only change"},
	{"cc.cubic_ack_ns", "cc", "ns", "lower", "flow_s_per_s @ bulk_clean (inside tcp.seg_ns)"},
	{"cc.bbr_ack_ns", "cc", "ns", "lower", "flow_s_per_s @ lossy_mixed (inside tcp.seg_lossy_ns)"},
	{"sockbuf.cycle_ns", "sockbuf", "ns", "lower", "flow_s_per_s @ bulk_clean"},
	{"sockbuf.writer_blocks", "sockbuf", "count", "lower", "sim.switch_ns share @ bulk_clean"},
	{"stack.info_ns", "stack", "ns", "lower", "flow_s_per_s @ fleet_churn (one TCP_INFO per poll)"},

	{"core.snd_poll_ns", "core", "ns", "lower", "flow_s_per_s @ fleet_churn; about none @ bulk_clean"},
	{"core.snd_poll_allocs", "core", "count", "lower", "allocs_per_flow_s @ fleet_churn"},
	{"core.rcv_poll_ns", "core", "ns", "lower", "flow_s_per_s @ fleet_churn"},
	{"core.lite_poll_ns", "core", "ns", "lower", "flow_s_per_s @ scale_lite only"},
	{"core.min_step_ns", "core", "ns", "lower", "flow_s_per_s @ lossy_mixed (one Minimize flow)"},
	{"core.ckpt_ns", "core", "ns", "lower", "flow_s_per_s @ fleet_churn"},
	{"core.ckpt_bytes", "core", "B", "lower", "bytes_per_flow_s @ fleet_churn"},
	{"core.polls", "core", "count", "lower", "flow_s_per_s @ fleet_churn, scale_lite"},
	{"core.samples", "core", "count", "higher", "physics: must not move under a speed-only change"},
	{"core.anomalies", "core", "count", "lower", "physics: must not move under a speed-only change"},

	{"trace.hook_ns", "trace", "ns", "lower", "flow_s_per_s @ every simulator workload (exp.Build always attaches it)"},
	{"waterfall.range_ns", "waterfall", "ns", "lower", "flow_s_per_s @ fanout_rpc, then lossy_mixed; none @ bulk_clean, scale_lite"},
	{"waterfall.range_allocs", "waterfall", "count", "lower", "allocs_per_flow_s @ fanout_rpc"},
	{"waterfall.ranges", "waterfall", "count", "lower", "flow_s_per_s @ fanout_rpc, lossy_mixed"},
	{"waterfall.residual_frac", "waterfall", "frac", "lower", "correctness: telescoping residual stays ~0"},
	{"reqtrace.span_ns", "reqtrace", "ns", "lower", "flow_s_per_s @ fanout_rpc"},
	{"reqtrace.requests", "reqtrace", "count", "higher", "physics: must not move under a speed-only change"},
	{"reqtrace.report_s", "reqtrace", "s", "lower", "flow_s_per_s @ fanout_rpc"},

	{"telemetry.counter_ns", "telemetry", "ns", "lower", "flow_s_per_s @ lossy_mixed; none @ bulk_clean"},
	{"telemetry.event_ns", "telemetry", "ns", "lower", "flow_s_per_s @ lossy_mixed"},
	{"telemetry.export_ns", "telemetry", "ns", "lower", "none (exports happen after the run phase)"},
	{"stream.observe_ns", "stream", "ns", "lower", "flow_s_per_s @ fleet_churn, scale_lite"},
	{"stream.merge_ns", "stream", "ns", "lower", "flow_s_per_s @ fleet_churn, scale_lite"},
	{"stream.seal_ns", "stream", "ns", "lower", "flow_s_per_s @ fleet_churn, scale_lite"},
	{"stream.export_ns", "stream", "ns", "lower", "flow_s_per_s @ fleet_churn"},
	{"stream.export_bytes", "stream", "B", "lower", "bytes_per_flow_s @ fleet_churn"},
	{"stream.windows", "stream", "count", "higher", "physics: must not move under a speed-only change"},
	{"stream.late", "stream", "count", "lower", "physics: must not move under a speed-only change"},

	{"overload.tick_ns_per_flow", "overload", "ns", "lower", "flow_s_per_s @ fleet_churn only"},
	{"overload.queue_ns", "overload", "ns", "lower", "flow_s_per_s @ fleet_churn only"},
	{"overload.sheds", "overload", "count", "lower", "physics: must not move under a speed-only change"},
	{"overload.reclaims", "overload", "count", "higher", "physics: must not move under a speed-only change"},
	{"overload.queue_highwater", "overload", "count", "lower", "physics: must not move under a speed-only change"},

	{"fleet.poll_ns", "fleet", "ns", "lower", "flow_s_per_s @ scale_lite (run_s / Polls: wheel + columns + sketch merge seen from outside)"},
	{"fleet.snapshot_s", "fleet", "s", "lower", "none (snapshots are outside the run phase)"},
	{"fleet.snapshot_bytes", "fleet", "B", "lower", "none"},
	{"fleet.resume_s", "fleet", "s", "lower", "setup_s when a run resumes"},
	{"fleet.restarts", "fleet", "count", "lower", "physics: must not move under a speed-only change"},
	{"fleet.checkpoints", "fleet", "count", "lower", "flow_s_per_s @ fleet_churn (x core.ckpt_ns)"},

	{"harness.run_s", "harness", "s", "lower", "median run phase of the traced pass's unprofiled repetitions"},
	{"harness.rep_iqr_frac", "harness", "frac", "lower", "diagnostic: run-to-run noise of this process"},
	{"harness.peak_rss_mb", "harness", "MB", "lower", "retained_mb @ scale_lite"},
	{"harness.gc_cpu_frac", "harness", "frac", "lower", "falls with allocs_per_flow_s @ bulk_clean"},
	{"harness.trace_overhead_frac", "harness", "frac", "lower", "diagnostic: profiled vs unprofiled run phase"},
	{"harness.cpu_per_wall", "harness", "ratio", "higher", "cores kept busy in the run phase (sampled CPU seconds / wall seconds): flow_s_per_s @ the three fleet workloads rises with it"},
	{"harness.loadavg", "harness", "count", "lower", "diagnostic: a set taken at load > nproc is flagged"},

	// The cost waterfall: each row is the share of the run phase's sampled
	// CPU time whose innermost element/internal/ frame is in that package.
	{"cost.sim_frac", "cost", "frac", "lower", "flow_s_per_s @ bulk_clean, fleet_churn, fanout_rpc (event heap and Proc hand-offs); none @ scale_lite"},
	{"cost.netem_frac", "cost", "frac", "lower", "flow_s_per_s @ bulk_clean, fleet_churn"},
	{"cost.aqm_frac", "cost", "frac", "lower", "flow_s_per_s @ fleet_churn, fanout_rpc"},
	{"cost.pkt_frac", "cost", "frac", "lower", "allocs_per_flow_s @ bulk_clean, fleet_churn"},
	{"cost.tcp_frac", "cost", "frac", "lower", "flow_s_per_s @ lossy_mixed (two thirds of it), bulk_clean"},
	{"cost.cc_frac", "cost", "frac", "lower", "flow_s_per_s @ bulk_clean, lossy_mixed (small)"},
	{"cost.sockbuf_frac", "cost", "frac", "lower", "flow_s_per_s @ bulk_clean (small)"},
	{"cost.stack_frac", "cost", "frac", "lower", "flow_s_per_s @ fleet_churn, fanout_rpc (sockets, demux, TCP_INFO)"},
	{"cost.core_frac", "cost", "frac", "lower", "flow_s_per_s @ fanout_rpc, scale_lite, fleet_churn; small @ bulk_clean"},
	{"cost.trace_frac", "cost", "frac", "lower", "flow_s_per_s @ lossy_mixed, bulk_clean (exp.Build always attaches it)"},
	{"cost.waterfall_frac", "cost", "frac", "lower", "flow_s_per_s @ fanout_rpc, fleet_churn, lossy_mixed; none @ bulk_clean, scale_lite"},
	{"cost.reqtrace_frac", "cost", "frac", "lower", "flow_s_per_s @ fanout_rpc only"},
	{"cost.telemetry_frac", "cost", "frac", "lower", "flow_s_per_s @ lossy_mixed; none @ bulk_clean"},
	{"cost.stream_frac", "cost", "frac", "lower", "flow_s_per_s @ scale_lite, fleet_churn"},
	{"cost.overload_frac", "cost", "frac", "lower", "flow_s_per_s @ fleet_churn only"},
	{"cost.fleet_frac", "cost", "frac", "lower", "flow_s_per_s @ scale_lite (wheel and columns: over half of it), fleet_churn"},
	{"cost.gc_frac", "cost", "frac", "lower", "background collection: falls with allocs_per_flow_s (allocation itself is charged to the allocating layer)"},
	{"cost.runtime_frac", "cost", "frac", "lower", "scheduler and futex time between goroutines: falls with fewer Proc hand-offs @ bulk_clean, fanout_rpc"},
	{"cost.residual_frac", "cost", "frac", "lower", "internal/ packages without a row, and the harness; reported, never hidden"},
}

// costRows are the rows of the cost waterfall, in print order: internal/
// packages by their last path element, then the two runtime rows;
// cost.residual_frac closes the sum to 1.
var costRows = []string{
	"sim", "netem", "aqm", "pkt", "tcp", "cc", "sockbuf", "stack", "core", "trace", "waterfall", "reqtrace",
	"telemetry", "stream", "overload", "fleet", rowGC, rowRuntime,
}
