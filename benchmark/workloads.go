package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/exp"
	"element/internal/fleet"
	"element/internal/overload"
	"element/internal/reqtrace"
	"element/internal/stats"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/units"
	"element/internal/waterfall"
)

// outcome is what one repetition's run phase reduces to: the operation
// tally behind ok_frac, the graded-sample tally behind unflagged_frac,
// the accuracy sums, the simulated-statistics digest and the names of
// any correctness checks that failed.
type outcome struct {
	attempted, failed int64
	graded, flagged   int64
	// errSum/truthSum are seconds over errN sender estimates; the
	// accuracy figure is 1 - (errSum/errN)/(truthSum/errN).
	errSum, truthSum float64
	errN             int64
	digest           uint64
	failedChecks     []string
	// counts are the layer work counts read from outside after the run
	// (result structs, LinkStats, TCP_INFO). Keys are catalogue names,
	// plus tcp.segs and netem.delivered, which the two ratios need.
	counts map[string]float64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failedChecks = append(o.failedChecks, fmt.Sprintf(format, args...))
	}
}

// instance is a built system under test. build is the setup phase; run
// is the run phase — Run() plus the reductions a user of the package
// would make (Report, CrossCheck). verify is the benchmark's own check
// of the outputs and is not timed: the digest, the grading of every
// estimator sample against ground truth, the audits. The instance stays
// referenced while retained_mb is read.
type instance interface {
	run()
	verify() *outcome
}

// buildOpts are the harness-side knobs of a build; the seed is the only
// workload input.
type buildOpts struct {
	seed int64
	// scale multiplies the simulated duration (the flow count on
	// scale_lite); 1 is the benchmark, -quick runs 1/20.
	scale float64
	// telem, when non-nil, is attached for the traced pass's counts; on
	// the scenario workloads it also makes run() drive the engine event
	// by event so sim.events is counted, not modelled.
	telem  *telemetry.Telemetry
	shards int
}

type workload struct {
	def workloadDef
	// size is the workload's flows and simulated duration at a scale; the
	// unit of work, the flow-second, is their product — a constant of
	// the config.
	size  func(scale float64) (flows int, dur units.Duration)
	build func(o buildOpts) instance
}

func (w workload) flowSeconds(scale float64) float64 {
	flows, dur := w.size(scale)
	return float64(flows) * dur.Seconds()
}

// defOf finds a workload's catalogue entry by name.
func defOf(name string) workloadDef {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d
		}
	}
	panic("benchmark: workload " + name + " is not in the catalogue")
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.def.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func scaled(d units.Duration, scale float64) units.Duration {
	return units.Duration(float64(d) * scale)
}

// Sized so one repetition's run phase is about 2 s on the 2-core box
// the benchmark was written on (see README.md "Sizing").
const (
	bulkFlows, bulkDur   = 4, 30 * units.Second
	lossyFlows, lossyDur = 4, 12 * units.Second
	fanGroups, fanDegree = 8, 8
	fanRPS, fanLegBytes  = 500, 256
	fanDur               = 6 * units.Second
	churnConns, churnDur = 256, 6 * units.Second
	churnOpenWindow      = 1500 * units.Millisecond
	churnInterval        = 10 * units.Millisecond
	scaleFlows, scaleDur = 400000, 6 * units.Second
	scaleInterval        = 100 * units.Millisecond
)

var workloads = []workload{
	{
		def:  defOf("bulk_clean"),
		size: func(s float64) (int, units.Duration) { return bulkFlows, scaled(bulkDur, s) },
		build: func(o buildOpts) instance {
			flows := make([]exp.FlowSpec, bulkFlows)
			for i := range flows {
				flows[i] = exp.FlowSpec{CC: cc.KindCubic, Element: true}
			}
			return buildScenario(o, exp.ScenarioConfig{
				Seed: o.seed, Rate: 100 * units.Mbps, RTT: 20 * units.Millisecond,
				Disc: aqm.KindFIFO, Duration: scaled(bulkDur, o.scale), Flows: flows,
				Telemetry: o.telem,
			})
		},
	},
	{
		def:  defOf("lossy_mixed"),
		size: func(s float64) (int, units.Duration) { return lossyFlows, scaled(lossyDur, s) },
		build: func(o buildOpts) instance {
			telem := o.telem
			if telem == nil {
				// Telemetry is part of this workload's configuration,
				// traced pass or not.
				telem = telemetry.New()
			}
			return buildScenario(o, exp.ScenarioConfig{
				Seed: o.seed, Rate: 50 * units.Mbps, RTT: 40 * units.Millisecond,
				Disc: aqm.KindCoDel, Duration: scaled(lossyDur, o.scale),
				Flows: []exp.FlowSpec{
					{CC: cc.KindCubic, Element: true},
					{CC: cc.KindCubic, Minimize: true},
					{CC: cc.KindBBR, Element: true},
					{CC: cc.KindReno, Element: true},
				},
				Waterfall: waterfall.New(), Telemetry: telem,
			})
		},
	},
	{
		def:   defOf("fanout_rpc"),
		size:  func(s float64) (int, units.Duration) { return fanGroups * fanDegree, scaled(fanDur, s) },
		build: buildFanout,
	},
	{
		def:   defOf("fleet_churn"),
		size:  func(s float64) (int, units.Duration) { return churnConns, scaled(churnDur, s) },
		build: buildChurn,
	},
	{
		def: defOf("scale_lite"),
		// The lite plane's cost is per flow, so -quick shrinks the
		// population, not the run.
		size:  func(s float64) (int, units.Duration) { return int(math.Round(scaleFlows * s)), scaleDur },
		build: buildScale,
	},
}

// digester folds simulated statistics into the sim_digest: FNV-1a over
// fixed-width fields, so two commits (or six repetitions) that simulated
// the same thing print the same 16 hex digits.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		d.h.Write(b[:])
	}
}

func (d digester) ints(vs ...int) {
	for _, v := range vs {
		d.u64(uint64(int64(v)))
	}
}

func (d digester) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

// measurements and series fold every field the grading reads, so equal
// digests mean the bounded-or-flagged verdicts were computed from equal
// inputs.
func (d digester) measurements(log []core.Measurement) {
	d.ints(len(log))
	for _, m := range log {
		d.u64(uint64(m.At), uint64(m.Delay), uint64(m.ErrBound), uint64(m.Confidence))
	}
}

func (d digester) series(s stats.Series) {
	d.ints(len(s))
	for _, x := range s {
		d.u64(uint64(x.At), uint64(x.Delay))
	}
}

func (d digester) boundCheck(b core.BoundCheck) {
	d.ints(b.Samples, b.Flagged, b.Checked, b.Violations)
}

// --- bulk_clean, lossy_mixed ------------------------------------------

type scenarioInstance struct {
	s   *exp.Scenario
	cfg exp.ScenarioConfig
	// countEvents drives the engine one Step at a time (traced pass).
	countEvents bool
	events      int
}

func buildScenario(o buildOpts, cfg exp.ScenarioConfig) instance {
	return &scenarioInstance{s: exp.Build(cfg), cfg: cfg, countEvents: o.telem != nil}
}

func (in *scenarioInstance) run() {
	s := in.s
	if in.countEvents {
		// A sentinel at the end time stops the hand-driven loop; RunUntil
		// then executes whatever else shares that timestamp (uncounted: a
		// handful of polls), and Run, finding the clock at the end,
		// finishes the scenario (goodput, process shutdown) as usual.
		end := units.Time(in.cfg.Duration)
		done := false
		s.Eng.At(end, func() { done = true })
		for !done && s.Eng.Step() {
			in.events++
		}
		s.Eng.RunUntil(end)
	}
	s.Run()
}

func (in *scenarioInstance) verify() *outcome {
	s := in.s
	out := &outcome{counts: map[string]float64{"sim.events": float64(in.events)}}
	d := newDigester()
	var snd, rcv core.BoundCheck
	for _, fr := range s.Flows {
		d.u64(fr.Conn.Receiver.ReadCum())
		d.ints(len(fr.GT.SenderDelay()), len(fr.GT.NetworkDelay()), len(fr.GT.ReceiverDelay()))
		info := fr.Conn.Sender.GetsockoptTCPInfo()
		out.counts["tcp.segs"] += float64(info.SegsOut)
		if fr.Sender == nil {
			continue
		}
		truth := fr.GT.SenderDelay()
		slog, rlog := fr.Sender.Estimates().Log(), fr.Receiver.Estimates().Log()
		snd.Merge(gradeSender(slog, truth))
		rcv.Merge(gradeReceiver(rlog, fr.GT.ReceiverDelay()))
		d.series(truth)
		d.series(fr.GT.ReceiverDelay())
		d.measurements(slog)
		d.measurements(rlog)
		accumulateAccuracy(out, fr.Sender.Estimates().Series(), fr.GT.SenderDelay())
		out.counts["core.samples"] += float64(len(slog) + len(rlog))
		out.counts["core.anomalies"] += float64(fr.Sender.Tracker.Anomalies().Total() + fr.Receiver.Tracker.Anomalies().Total())
		out.counts["core.polls"] += float64(fr.Sender.Tracker.Polls() + fr.Receiver.Tracker.Polls())
	}
	fwd, rev := s.Path.Forward.Stats(), s.Path.Reverse.Stats()
	fq, rq := s.Path.Forward.QueueStats(), s.Path.Reverse.QueueStats()
	d.ints(fwd.Sent, fwd.Delivered, fwd.Lost, fwd.Bytes, rev.Sent, rev.Delivered, rev.Lost, rev.Bytes)
	d.ints(fq.Enqueued, fq.Dequeued, fq.TailDrops, fq.AQMDrops, fq.ECNMarks,
		rq.Enqueued, rq.Dequeued, rq.TailDrops, rq.AQMDrops, rq.ECNMarks)
	d.boundCheck(snd)
	d.boundCheck(rcv)

	out.counts["netem.pkts"] = float64(fwd.Sent + rev.Sent)
	out.counts["netem.lost"] = float64(fwd.Lost + rev.Lost)
	out.counts["netem.delivered"] = float64(fwd.Delivered + rev.Delivered)
	out.counts["aqm.drops"] = float64(fq.TailDrops + fq.AQMDrops + rq.TailDrops + rq.AQMDrops)
	if wf := in.cfg.Waterfall; wf != nil {
		agg := wf.Aggregate()
		d.ints(agg.Ranges)
		d.u64(agg.Bytes)
		out.counts["waterfall.ranges"] = float64(agg.Ranges)
		out.counts["waterfall.residual_frac"] = agg.Residual
		out.check(agg.Residual < 1e-9, "waterfall residual %.3g >= 1e-9", agg.Residual)
	}

	out.attempted = int64(snd.Samples + rcv.Samples)
	out.failed = int64(snd.Violations + rcv.Violations)
	out.graded = out.attempted
	out.flagged = int64(snd.Flagged + rcv.Flagged)
	out.check(out.failed == 0, "%d bounded-or-flagged violations", out.failed)
	out.check(out.attempted > 0, "no estimator samples graded")
	out.digest = d.h.Sum64()
	return out
}

// gradeWindow is how far before a sample's timestamp its bound check
// may look, beyond the sample's own ErrBound: it must cover core's
// sender lookback (two polling intervals) and receiver lookback (150 ms).
const gradeWindow = 200 * units.Millisecond

// gradeSender and gradeReceiver are core.CheckSenderBounds and
// core.CheckReceiverBounds over the whole log, fed one chunk of the log
// and the matching window of the truth series at a time. The checks
// scan the entire truth series for every sample, which at bulk_clean's
// 100 k samples x 64 k truth points per flow is seconds; a window that
// covers every sample's lookback plus one truth point on each side
// gives the same verdicts (TestGradeChunkedMatchesWhole) in
// milliseconds, so every repetition can be graded in full.
func gradeSender(log []core.Measurement, truth stats.Series) core.BoundCheck {
	return gradeChunked(log, truth, func(l []core.Measurement, t stats.Series) core.BoundCheck {
		return core.CheckSenderBounds(l, t, 0)
	})
}

func gradeReceiver(log []core.Measurement, truth stats.Series) core.BoundCheck {
	return gradeChunked(log, truth, core.CheckReceiverBounds)
}

func gradeChunked(log []core.Measurement, truth stats.Series, check func([]core.Measurement, stats.Series) core.BoundCheck) core.BoundCheck {
	const chunk = 64
	var total core.BoundCheck
	for len(log) > 0 {
		n := chunk
		if n > len(log) {
			n = len(log)
		}
		part := log[:n]
		log = log[n:]
		lo, hi := part[0].At, part[0].At
		for _, m := range part {
			if from := m.At.Add(-m.ErrBound - gradeWindow); from < lo {
				lo = from
			}
			if m.At > hi {
				hi = m.At
			}
		}
		i := sort.Search(len(truth), func(i int) bool { return truth[i].At >= lo })
		if i > 0 {
			i-- // the point interpolation at lo leans on
		}
		j := sort.Search(len(truth), func(j int) bool { return truth[j].At > hi })
		if j < len(truth) {
			j++ // and the one interpolation at hi leans on
		}
		total.Merge(check(part, truth[i:j]))
	}
	return total
}

// accumulateAccuracy adds one flow's |estimate - truth| and truth sums,
// the comparison bench_test.go's senderAccuracyWithInterval makes.
func accumulateAccuracy(out *outcome, est, truth stats.Series) {
	if len(est) == 0 || len(truth) == 0 {
		return
	}
	mean := truth.Mean().Seconds()
	for _, s := range est {
		gt, ok := truth.At(s.At)
		if !ok {
			continue
		}
		out.errSum += math.Abs((s.Delay - gt).Seconds())
		out.truthSum += mean
		out.errN++
	}
}

// --- fanout_rpc --------------------------------------------------------

type fanoutInstance struct {
	f   *fleet.Fleet
	tr  *reqtrace.Tracer
	res *fleet.Result
	rp  *reqtrace.Report
	// crossCheck is rp.CrossCheck()'s verdict, computed in the run phase.
	crossCheck error
}

func buildFanout(o buildOpts) instance {
	tr := reqtrace.New()
	f := fleet.New(fleet.Config{
		Seed: o.seed, Connections: fanGroups * fanDegree, Duration: scaled(fanDur, o.scale),
		// Each backend link carries its leg load at 75 % mean utilisation.
		Rate: units.Rate(float64(fanRPS*fanLegBytes*8) / 0.75), RTT: 20 * units.Millisecond,
		Disc: aqm.KindCoDel, Shards: o.shards, Telem: o.telem,
		Fanout: &fleet.FanoutConfig{Degree: fanDegree, RPS: fanRPS, RequestBytes: fanLegBytes, Tracer: tr},
	})
	return &fanoutInstance{f: f, tr: tr}
}

func (in *fanoutInstance) run() {
	in.res = in.f.Run()
	in.rp = in.tr.Report()
	in.crossCheck = in.rp.CrossCheck()
}

func (in *fanoutInstance) verify() *outcome {
	out := &outcome{counts: map[string]float64{}}
	res, rp := in.res, in.rp
	out.check(in.crossCheck == nil, "reqtrace cross-check: %v", in.crossCheck)
	out.check(rp.MaxResidual < 1e-9, "telescoping residual %.3g >= 1e-9", rp.MaxResidual)
	issued := res.Requests + res.RequestsAbandoned
	// An open loop is cut mid-flight. Whatever is outstanding at an instant
	// arrived within the longest latency before it: at most about rate x
	// this run's own P99.9 latency (sixty seeds reached 0.37 of that; the
	// mean, by Little's law, is near 100). More means requests have
	// stopped completing.
	limit := fanGroups * fanRPS * rp.Exact[0].P999
	out.check(float64(res.RequestsAbandoned) <= limit,
		"%d of %d requests still in flight at the cut, more than %.0f/s x P99.9 latency %.3f s explains",
		res.RequestsAbandoned, issued, float64(fanGroups*fanRPS), rp.Exact[0].P999)
	out.check(res.Violations() == 0, "%d bounded-or-flagged violations", res.Violations())
	out.check(res.Requests > 0, "no requests completed")

	out.attempted = int64(res.Requests)
	out.graded = int64(res.Sender.Samples + res.Receiver.Samples)
	out.flagged = int64(res.Sender.Flagged + res.Receiver.Flagged)

	d := newDigester()
	d.u64(res.Requests, res.RequestsAbandoned, rp.Completed, rp.StrayBytes)
	d.ints(rp.Retained)
	d.f64(rp.MeanE2E, rp.MaxResidual)
	for _, q := range rp.Exact {
		d.f64(q.P50, q.P99, q.P999)
	}
	d.boundCheck(res.Sender)
	d.boundCheck(res.Receiver)
	fleetCounters(d, out, res)
	out.digest = d.h.Sum64()

	out.counts["reqtrace.requests"] = float64(res.Requests)
	return out
}

func fleetCounters(d digester, out *outcome, res *fleet.Result) {
	d.ints(len(res.Conns), res.Restarts, res.Crashes, res.Recycles, res.Checkpoints, res.Evictions, res.Restores)
	anomalies := 0
	for _, c := range res.Conns {
		anomalies += c.Anomalies.Total()
		d.f64(c.GoodputBps)
	}
	d.ints(anomalies)
	out.counts["core.anomalies"] = float64(anomalies)
	out.counts["core.samples"] = float64(res.Sender.Samples + res.Receiver.Samples)
	out.counts["fleet.restarts"] = float64(res.Restarts)
	out.counts["fleet.checkpoints"] = float64(res.Checkpoints)
}

// --- fleet_churn -------------------------------------------------------

// exportTally is the stream sink's far end: it hashes and counts the
// exported bytes so the digest covers the export stream itself.
type exportTally struct {
	h hash.Hash64
	n int
}

func (e *exportTally) Write(p []byte) (int, error) {
	e.n += len(p)
	return e.h.Write(p)
}

type churnInstance struct {
	f      *fleet.Fleet
	export *exportTally
	wf     *waterfall.Waterfall
	conns  int
	res    *fleet.Result
}

func churnConfig(o buildOpts, export *exportTally, wf *waterfall.Waterfall) fleet.Config {
	return fleet.Config{
		Seed: o.seed, Connections: churnConns, Duration: scaled(churnDur, o.scale),
		Rate: 4 * units.Mbps, RTT: 40 * units.Millisecond, Interval: churnInterval,
		Shards: o.shards, Telem: o.telem,
		Churn: fleet.ChurnConfig{
			OpenWindow: scaled(churnOpenWindow, o.scale),
			CloseFrac:  .1, CrashFrac: .1, StallFrac: .05,
		},
		Stream: &fleet.StreamConfig{
			Window: 250 * units.Millisecond,
			Rules:  stream.Rules{P99Above: 100 * units.Millisecond},
			Sink:   stream.NewBatchExporter(export, 0),
		},
		Overload:    &overload.Config{Budgets: overload.Budgets{RetainedSamples: 40000}},
		ExportQueue: &overload.QueueConfig{},
		Waterfall:   wf,
	}
}

func newExportTally() *exportTally { return &exportTally{h: fnv.New64a()} }

func buildChurn(o buildOpts) instance {
	export, wf := newExportTally(), waterfall.New()
	return &churnInstance{f: fleet.New(churnConfig(o, export, wf)), export: export, wf: wf, conns: churnConns}
}

func (in *churnInstance) run() { in.res = in.f.Run() }

func (in *churnInstance) verify() *outcome {
	out := &outcome{counts: map[string]float64{}}
	res := in.res
	q := res.Queue

	undrained := in.conns - len(res.Conns)
	out.attempted = int64(q.Enqueued + in.conns)
	out.failed = int64(q.Dropped+q.Deadlined+undrained) + int64(res.StreamDropped)
	out.check(out.failed == 0, "%d windows dropped/deadlined or connections undrained", out.failed)
	// The queue audit: every window that entered is accounted for. The
	// drain flushed the queue, so the depth term is zero unless the
	// export was truncated.
	out.check(q.Enqueued == q.Delivered+q.Dropped+q.Deadlined && !res.ExportTruncated,
		"export-queue audit: enqueued %d != delivered %d + dropped %d + deadlined %d (truncated=%v)",
		q.Enqueued, q.Delivered, q.Dropped, q.Deadlined, res.ExportTruncated)
	out.check(res.StreamErr == nil, "stream sink: %v", res.StreamErr)
	out.check(res.Violations() == 0, "%d bounded-or-flagged violations", res.Violations())
	out.check(res.StreamWindows > 0, "no stream windows exported")
	out.graded = int64(res.Sender.Samples + res.Receiver.Samples)
	out.flagged = int64(res.Sender.Flagged + res.Receiver.Flagged)

	d := newDigester()
	fleetCounters(d, out, res)
	d.ints(res.Escalations, res.Demotions, res.Escalated, res.Sheds, res.Reclaims, res.Parked, res.ShedSamples)
	d.u64(res.StreamWindows, res.StreamLate, res.StreamDropped)
	d.ints(q.Enqueued, q.Delivered, q.Retries, q.Dropped, q.Deadlined, q.HighWater)
	d.ints(in.export.n)
	d.u64(in.export.h.Sum64())
	// Recorders attach only while a flow is escalated, so this is the
	// escalation path's work.
	agg := in.wf.Aggregate()
	d.ints(agg.Ranges)
	d.u64(agg.Bytes)
	out.check(agg.Residual < 1e-9, "waterfall residual %.3g >= 1e-9", agg.Residual)
	out.digest = d.h.Sum64()

	out.counts["waterfall.ranges"] = float64(agg.Ranges)
	out.counts["waterfall.residual_frac"] = agg.Residual
	out.counts["stream.windows"] = float64(res.StreamWindows)
	out.counts["stream.late"] = float64(res.StreamLate)
	out.counts["stream.export_bytes"] = float64(in.export.n)
	out.counts["overload.sheds"] = float64(res.Sheds)
	out.counts["overload.reclaims"] = float64(res.Reclaims)
	out.counts["overload.queue_highwater"] = float64(q.HighWater)
	return out
}

// --- scale_lite --------------------------------------------------------

type scaleInstance struct {
	f     *fleet.ScaleFleet
	flows int
	res   *fleet.ScaleResult
}

func scaleConfig(o buildOpts, flows int) fleet.ScaleConfig {
	return fleet.ScaleConfig{
		Seed: o.seed, Flows: flows, Duration: scaleDur,
		Interval: scaleInterval, Shards: o.shards, EscalateAbove: -1, Telem: o.telem,
	}
}

func buildScale(o buildOpts) instance {
	flows := int(math.Round(scaleFlows * o.scale))
	return &scaleInstance{f: fleet.NewScale(scaleConfig(o, flows)), flows: flows}
}

func (in *scaleInstance) run() { in.res = in.f.Run() }

func (in *scaleInstance) verify() *outcome {
	out := &outcome{counts: map[string]float64{}}
	res := in.res

	// First deadlines are phase-spread across the interval, so a flow
	// polls each side either duration/interval times or one fewer; below
	// that floor a poll was lost.
	floor := int64(2*in.flows) * (int64(scaleDur/scaleInterval) - 1)
	out.attempted = int64(res.Polls)
	if short := floor - int64(res.Polls); short > 0 {
		out.failed = short
	}
	out.check(out.failed == 0, "%d lite polls short of the floor %d", out.failed, floor)
	out.check(res.StreamErr == nil, "stream sink: %v", res.StreamErr)
	out.check(res.Polls > 0, "no lite polls")
	out.graded, out.flagged = int64(res.Polls), int64(res.Flagged)

	d := newDigester()
	d.ints(res.Flows, res.Escalated, res.Restores, res.RetainedSamples, res.Sheds, res.Reclaims)
	d.u64(res.Polls, res.TrackerPolls, res.Flagged, res.Escalations, res.Demotions, res.FalseAlarms,
		res.ParkedSkips, res.StreamWindows, res.StreamLate)
	d.f64(res.SndP50, res.SndP99, res.RcvP99)
	out.digest = d.h.Sum64()

	out.counts["core.polls"] = float64(res.Polls)
	out.counts["stream.windows"] = float64(res.StreamWindows)
	out.counts["stream.late"] = float64(res.StreamLate)
	return out
}
