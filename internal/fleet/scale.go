package fleet

import (
	"context"

	"element/internal/core"
	"element/internal/overload"
	"element/internal/sim"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/units"
)

// Scale mode: the million-monitor fleet. The full Fleet simulates every
// connection through the packet stack and spends a goroutine-free but
// still heavyweight monitor (trackers, sanitizers, ground-truth
// collectors) per connection; that tops out around 10^4 connections per
// process. ScaleFleet is the same supervision architecture — sharded
// event loops, barrier-synchronized streaming telemetry, the overload
// governor — applied to 10^6 flows by inverting the default
// granularity: every flow starts in the lightweight phase (16 bytes of
// lite-poll state in struct-of-arrays columns laid out in poll order,
// windowed sketch aggregation) and only flows whose lite estimates trip
// the escalation trigger are promoted to a full SenderTracker whose
// samples feed the sketches at full granularity — the two-phase
// Dapper-style design from the streaming layer, at fleet scale.
//
// Workload counters come from the closed-form synthetic flows in
// synth.go, so every observable is a pure function of (seed, flow id,
// time). Two consequences the tests pin: a run's merged stream export
// is byte-identical for any shard count, and per-flow decisions
// (escalation, demotion, governor tiers) never depend on shard layout.

// ScaleConfig parameterizes a scale-mode run. Zero values select the
// defaults noted per field.
type ScaleConfig struct {
	// Seed derives every flow's workload parameters.
	Seed int64
	// Flows is the number of concurrent monitored flows.
	Flows int
	// Duration is the virtual run length (default 10 s).
	Duration units.Duration
	// Interval is the per-flow lite poll period (default 100 ms — the
	// fleet-scale setting; escalated flows poll every tick).
	Interval units.Duration
	// Shards is the worker count (0 = GOMAXPROCS, capped at Flows).
	// Results are invariant.
	Shards int

	// EscalateAbove is the lite delay threshold that arms the
	// escalation streak (default 35 ms: above the synthetic workload's
	// normal wobble, below every burst). It is also the windowed
	// demotion policy's P99Above for escalated flows. Negative disables
	// escalation.
	EscalateAbove units.Duration

	// Window is the stream window width (default 500 ms).
	Window units.Duration
	// Sink receives each merged fleet window as it seals (nil = counted
	// and discarded; quantiles still accumulate into the result).
	Sink stream.Sink

	// Overload enables the degradation-ladder governor, ticked at every
	// barrier with Usage.LiveFull reporting the escalated population.
	Overload *overload.Config
	// Telem, when set, receives the run's counters (including the
	// snd_polls/rcv_polls counters the elembench per-poll cost line
	// reads) after the run completes.
	Telem *telemetry.Telemetry
	// Resume restores tiers and escalated-tracker state from a
	// Snapshot; flows re-home onto the new shard layout by id.
	Resume *Snapshot
}

func (c ScaleConfig) normalize() ScaleConfig {
	if c.Flows <= 0 {
		c.Flows = 1
	}
	if c.Duration <= 0 {
		c.Duration = 10 * units.Second
	}
	if c.Interval <= 0 {
		c.Interval = 100 * units.Millisecond
	}
	c.Shards = shardCount(c.Shards, c.Flows)
	if c.EscalateAbove == 0 {
		c.EscalateAbove = 35 * units.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 500 * units.Millisecond
	}
	return c
}

// gran is the tick width: an eighth of the poll interval when it
// divides evenly (so per-flow phases spread polls across sub-ticks of
// the interval instead of thundering on one instant), else the interval
// itself.
func (c ScaleConfig) gran() units.Duration {
	if c.Interval%8 == 0 {
		return c.Interval / 8
	}
	return c.Interval
}

// period is the number of ticks in one poll interval: 8 or 1.
func (c ScaleConfig) period() int64 { return int64(c.Interval / c.gran()) }

// slice is the barrier length: ~1/64 of the run, never under one poll
// interval, rounded up to a whole number of intervals so ticks and
// barriers share a grid. Barrier times are a pure function of the
// config — never of the shard count — which is what keeps stream seals
// and governor ticks shard-invariant.
func (c ScaleConfig) slice() units.Duration {
	s := barrierSlice(c.Duration, c.Interval)
	if r := s % c.Interval; r != 0 {
		s += c.Interval - r
	}
	return s
}

// scaleFull is the promoted state of one escalated flow: the full
// tracker over the flow's synthetic socket surface, the windowed
// demotion escalator, and the count of full-granularity samples the
// flow has produced since promotion — what the governor's
// RetainedSamples budget meters. Each sample goes to the shard sketch
// and the escalator; none is kept.
type scaleFull struct {
	src        *synthSource
	tr         *core.SenderTracker
	esc        *stream.Escalator
	samples    int
	promotedAt units.Time
	hotSet     bool
}

// scaleShard is one worker: a bare engine used only as the clock for
// escalated trackers, the static poll schedule, and the lite flow state
// in packed parallel columns indexed by slot. All of that is the shard's
// scaleRun, which drain zeroes once it has folded the counters; what a
// drained shard keeps is what Snapshot and ScaleResult read.
//
// The schedule is computed, not queued. Every poll is followed by the
// next exactly one Interval later — parked flows included — and nothing
// ever cancels, so a flow's deadlines are its first tick plus whole
// periods, for ever, and the order a timer queue would fire them in is
// known at construction. Slots are laid out in that order: sorted by
// (class = first tick mod period, late before on-time, flow id), where a
// flow is late when its phase rounds up to tick period+1 and so shares a
// class with the flows that first fired a whole period earlier. Tick t
// then polls the contiguous slot range of class t mod period as one
// sequential sweep over the columns. Late flows lead their class because
// a queue fires in arm order, and their one deadline was armed at
// construction, before the on-time flows re-armed at their first poll.
type scaleShard struct {
	fl *ScaleFleet
	scaleRun

	ids  []int32              // slot → global flow id
	tier []uint8              // slot → governor tier
	full map[int32]*scaleFull // slot → escalated state

	// Counters folded into the fleet at drain (shards run in parallel
	// between barriers, so nothing here touches shared state).
	polls, flagged, trackerPolls uint64
	parkedSkips, escalations     uint64
}

// scaleRun is what only a running scale shard reads.
type scaleRun struct {
	eng *sim.Engine
	now units.Time

	// Class c owns slots lo[c] ≤ slot < lo[c+1]; the first late[c] of
	// them are skipped while tick ≤ period.
	lo, late []int32

	slotOf []int32 // flow id / shard count → slot: the inverse of ids
	flows  []synthFlow

	// Lite poll state, struct-of-arrays: previous drained counter and
	// smoothed drain rate per side, escalation streak, last poll
	// instant.
	sndPrev   []uint64
	sndRate   []float64
	rcvPrev   []uint64
	rcvRate   []float64
	sndStreak []uint8
	lastPoll  []int64

	stream       *stream.Stream
	seSnd, seRcv *stream.Series
}

// ScaleResult is a scale run's summary.
type ScaleResult struct {
	Flows int
	// Polls counts lite per-side polls; TrackerPolls the driven polls
	// of escalated flows' full trackers; Flagged the low-confidence
	// lite samples.
	Polls, TrackerPolls, Flagged uint64
	// Escalations / Demotions count lite-trigger promotions and their
	// reversals; FalseAlarms is the subset of demotions where the
	// windowed rules never confirmed the lite trigger. Escalated is the
	// population still promoted at the end; Restores counts trackers
	// revived from a snapshot.
	Escalations, Demotions, FalseAlarms uint64
	Escalated                           int
	Restores                            int
	// RetainedSamples is the number of full-granularity samples the
	// flows still escalated at the end produced since their promotion
	// (the governor's RetainedSamples meter); no series is kept.
	RetainedSamples int
	// ParkedSkips counts polls suppressed by TierParked.
	ParkedSkips uint64

	StreamWindows uint64
	StreamLate    uint64
	StreamErr     error
	// Interrupted marks a run its context stopped before Duration.
	Interrupted bool

	Sheds, Reclaims int
	TierCounts      [overload.NumTiers]int

	// Run-wide quantiles of the merged delay sketches, in seconds.
	SndP50, SndP99, RcvP99 float64
}

// ScaleFleet runs a scale-mode fleet. Build with NewScale, run once
// with Run. A drained fleet keeps only what Snapshot and the result
// read: every flow's id and tier, the trackers of the flows still
// escalated, the config and the pipeline clock. The schedule, the lite
// columns, the streams, the escalators and the governor go at drain.
type ScaleFleet struct {
	cfg    ScaleConfig
	shards []*scaleShard

	// pipe is the barrier pipeline shared with Fleet; total is the
	// run-wide accumulation of every merged window it exports, which the
	// result quantiles come from.
	pipe  pipeline
	total stream.Window

	// demotions/falseAlarms are coordinator-only (demote runs at
	// barriers); promotions count shard-locally in pollBatch.
	demotions, falseAlarms uint64
	restores               int

	// promoteOK gates new promotions. It is written only between
	// barriers (from the LiveFull budget against the escalated census)
	// and read by the shard goroutines during a slice, so the gate's
	// value for any given poll is a pure function of barrier state —
	// shard-count invariant. While the gate is closed a tripped flow's
	// streak saturates and re-trips on every poll, so it promotes at
	// the first barrier that reopens the gate.
	promoteOK bool
}

// NewScale builds a scale fleet: flows deal round-robin onto shards
// (flow id mod shard count — the same id-keyed re-homing rule the big
// fleet uses, so snapshots restore into any layout), and each shard
// lays its flows out in poll order, every flow's first deadline
// phase-spread across the interval from its parameter hash.
func NewScale(cfg ScaleConfig) *ScaleFleet {
	cfg = cfg.normalize()
	f := &ScaleFleet{cfg: cfg, promoteOK: true}
	f.pipe = pipeline{
		duration: cfg.Duration,
		slice:    cfg.slice(),
		nshards:  cfg.Shards,
		advance:  func(i int, to units.Time) { f.shards[i].advance(to) },
		barrier:  f.escalationTick,
		total:    &f.total,
		sink:     cfg.Sink,
		gov:      newGovernor(cfg.Overload, cfg.Seed, cfg.Flows, cfg.Resume),
		usage:    f.meterUsage,
		apply:    f.applyTier,
	}
	scfg := shardStreamConfig(cfg.Window, 0, cfg.slice())
	// Sort scratch, shared by the shards: shard 0 is never the smaller.
	most := (cfg.Flows + cfg.Shards - 1) / cfg.Shards
	params, keys := make([]synthFlow, most), make([]uint8, most)
	for s := 0; s < cfg.Shards; s++ {
		n := cfg.Flows / cfg.Shards
		if s < cfg.Flows%cfg.Shards {
			n++
		}
		sh := &scaleShard{
			fl: f,
			scaleRun: scaleRun{
				eng:       sim.New(connSeed(cfg.Seed, -1-s)),
				slotOf:    make([]int32, n),
				flows:     make([]synthFlow, n),
				sndPrev:   make([]uint64, n),
				sndRate:   make([]float64, n),
				rcvPrev:   make([]uint64, n),
				rcvRate:   make([]float64, n),
				sndStreak: make([]uint8, n),
				lastPoll:  make([]int64, n),
				stream:    stream.New(scfg),
			},
			ids:  make([]int32, n),
			tier: make([]uint8, n),
			full: map[int32]*scaleFull{},
		}
		sh.schedule(s, params[:n], keys[:n])
		if gov := f.pipe.gov; gov != nil {
			// Tiers come from the governor alone, as Fleet.New seeds
			// Monitor.tier: without one nothing would reclaim a flow a
			// snapshot parked.
			for slot, id := range sh.ids {
				sh.tier[slot] = uint8(gov.Tier(int(id)))
			}
		}
		sh.seSnd = sh.stream.Series("snd_delay")
		sh.seRcv = sh.stream.Series("rcv_delay")
		f.pipe.addStream(sh.stream)
		f.shards = append(f.shards, sh)
	}
	f.applyResume()
	return f
}

// schedule lays shard s's flows out in poll order: a counting sort in
// two passes over the shard's ids, ascending both times, so slots within
// a sort key stay in id order. The key is 2·class, plus one for on-time
// flows. params and keys are scratch, one element per flow.
func (sh *scaleShard) schedule(s int, params []synthFlow, keys []uint8) {
	cfg := &sh.fl.cfg
	gran, period := uint64(cfg.gran()), cfg.period()
	start := make([]int32, 2*period+1) // start[k+1] counts key k, then start[k] is its first slot
	for i := range params {
		fl := synthParams(cfg.Seed, int32(s+i*cfg.Shards))
		// First deadline: the flow's phase within one interval, plus a
		// tick so the first dt is strictly positive, quantized up to the
		// tick grid — tick 1 to period+1. Later polls are +Interval each,
		// keeping the phase. Interval is period ticks and period a power
		// of two, so ⌈(hash mod Interval)/gran⌉ takes one division.
		tick := 1 + int64(fl.hash/gran)&(period-1)
		if fl.hash%gran != 0 {
			tick++
		}
		key := uint8(2 * (tick & (period - 1)))
		if tick <= period {
			key++
		}
		params[i], keys[i] = fl, key
		start[key+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	sh.lo, sh.late = make([]int32, period+1), make([]int32, period)
	for c := range sh.late {
		sh.lo[c], sh.late[c] = start[2*c], start[2*c+1]-start[2*c]
	}
	sh.lo[period] = int32(len(params))
	for i, key := range keys {
		slot := start[key]
		start[key]++
		sh.flows[slot] = params[i]
		sh.ids[slot] = int32(s + i*cfg.Shards)
		sh.slotOf[i] = slot
	}
}

// applyResume re-homes a snapshot's escalated flows into the freshly
// built fleet (its tiers landed through the governor): each is
// re-promoted on its new shard — restoring the rebased tracker checkpoint
// when it parses (counted in Restores), or starting a fresh escalated
// tracker when it doesn't. Out-of-range and duplicate ids are dropped.
func (f *ScaleFleet) applyResume() {
	snap := f.cfg.Resume
	if snap == nil {
		return
	}
	for _, cs := range snap.Conns {
		id := cs.ID
		if id < 0 || id >= f.cfg.Flows {
			continue
		}
		sh, slot := f.shardSlot(id)
		if sh.full[slot] != nil {
			continue // duplicate entry
		}
		if overload.Tier(sh.tier[slot]) >= overload.TierCounters {
			// The ladder already degraded this flow below full
			// granularity; the tier wins over the escalation record.
			continue
		}
		if cp, err := core.UnmarshalSenderCheckpoint(cs.Snd); err == nil && len(cs.Snd) > 0 {
			sh.escalate(slot, 0, &cp)
			f.restores++
		} else {
			sh.escalate(slot, 0, nil)
		}
	}
}

// Shards reports the worker count the fleet resolved to.
func (f *ScaleFleet) Shards() int { return len(f.shards) }

// shardSlot maps a global flow id to its (shard, slot) home.
func (f *ScaleFleet) shardSlot(id int) (*scaleShard, int32) {
	sh := f.shards[id%len(f.shards)]
	return sh, sh.slotOf[id/len(f.shards)]
}

// Run executes the scale run: shards advance in parallel to each
// barrier; stream sealing, export, escalation settling and the governor
// run single-threaded between barriers. Equivalent to
// RunContext(context.Background()).
func (f *ScaleFleet) Run() *ScaleResult { return f.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: a canceled context
// stops the run at the next barrier; the fleet still drains, so the
// windows up to there are sealed and exported and the result covers
// the partial run.
func (f *ScaleFleet) RunContext(ctx context.Context) *ScaleResult {
	f.pipe.run(ctx)
	res := f.drain()
	res.Interrupted = ctx.Err() != nil
	return res
}

// advance steps the shard tick by tick to the barrier. Every tick polls
// its class's slot range at the exact tick instant; the bare engine
// tracks the same instant so escalated trackers timestamp correctly.
//
// Escalated flows additionally record a write at every tick, not just
// their poll ticks: the tracker's delay resolution is the spacing of its
// write records (a record pushed at the poll instant itself can only
// ever match one whole interval later, which would pin every escalated
// estimate at exactly the interval). Tick-grain writes restore
// sub-interval resolution — and the escalated set is small and
// budget-bounded, so the extra per-tick sweep is O(live full), not
// O(flows).
func (sh *scaleShard) advance(to units.Time) {
	g := sh.fl.cfg.gran()
	for t := sh.now.Add(g); t <= to; t = t.Add(g) {
		lo, hi := sh.due(int64(t) / int64(g))
		if lo == hi && len(sh.full) == 0 {
			continue
		}
		sh.eng.RunUntil(t)
		for slot, fu := range sh.full {
			sh.pollFull(slot, fu, t)
		}
		sh.pollBatch(t, lo, hi)
	}
	sh.eng.RunUntil(to)
	sh.now = to
}

// due is the slot range tick polls: its class, less the late prefix
// until that has come due.
func (sh *scaleShard) due(tick int64) (lo, hi int32) {
	period := int64(len(sh.late))
	c := tick % period
	lo, hi = sh.lo[c], sh.lo[c+1]
	if tick <= period {
		lo += sh.late[c]
	}
	return lo, hi
}

// escalateStreak is how many consecutive hot lite polls promote a flow
// to a full tracker.
const escalateStreak = 2

// pollBatch services one tick: a sequential sweep over the columns of
// slots lo to hi. Lite flows take a LitePoll per side and feed the shard
// sketches; escalated flows drive their full tracker instead of the lite
// send path. It allocates nothing — the columns and the open stream
// windows are all reused.
func (sh *scaleShard) pollBatch(now units.Time, lo, hi int32) {
	cfg := &sh.fl.cfg
	for slot := lo; slot < hi; slot++ {
		if overload.Tier(sh.tier[slot]) == overload.TierParked {
			sh.parkedSkips++
			continue
		}
		fl := sh.flows[slot]
		dt := units.Duration(int64(now) - sh.lastPoll[slot])
		sh.lastPoll[slot] = int64(now)
		sketch := overload.Tier(sh.tier[slot]) <= overload.TierSketch
		// What the sender has had acknowledged is what the receiver has
		// been handed: one evaluation serves both sides.
		acked := fl.acked(now)

		if sh.full[slot] == nil {
			delay, rate, flg := core.LitePoll(fl.written(now), acked, sh.sndPrev[slot], sh.sndRate[slot], dt)
			sh.sndPrev[slot], sh.sndRate[slot] = acked, rate
			sh.polls++
			if flg {
				sh.flagged++
			}
			if sketch {
				observe(sh.seSnd, now, delay.Seconds(), flg)
			}
			if cfg.EscalateAbove >= 0 && overload.Tier(sh.tier[slot]) <= overload.TierSketch {
				streak, esc := core.LiteEscalate(sh.sndStreak[slot], delay, flg, cfg.EscalateAbove, escalateStreak)
				sh.sndStreak[slot] = streak
				if esc && sh.fl.promoteOK {
					sh.promote(slot, now)
				}
			}
		}
		// Escalated flows' send side was already driven at tick grain
		// by the advance sweep; only the receive side remains here.

		// Receive side stays lite even for escalated flows: the
		// receiver model drains promptly, the sender is where the
		// paper's pathologies live.
		rdr := fl.read(now)
		rdelay, rrate, rflg := core.LitePoll(acked, rdr, sh.rcvPrev[slot], sh.rcvRate[slot], dt)
		sh.rcvPrev[slot], sh.rcvRate[slot] = rdr, rrate
		sh.polls++
		if rflg {
			sh.flagged++
		}
		if sketch {
			observe(sh.seRcv, now, rdelay.Seconds(), rflg)
		}
	}
}

// pollFull drives one escalated flow's send side for one tick:
// record the write, poll the tracker, and drain any matched estimates
// into the shard sketch and the flow's demotion escalator, counting
// each toward the RetainedSamples meter. Escalated flows run at tick
// grain — not the lite interval — because the estimator's resolution is
// its poll cadence: a record can only match at a poll instant, so
// interval-grain polling would quantize every matched delay up toward a
// full interval and a clean (demotable) window could never be observed.
// The escalated population is budget-bounded, so the per-tick sweep is
// O(live full), not O(flows).
func (sh *scaleShard) pollFull(slot int32, fu *scaleFull, now units.Time) {
	fu.src.now = now
	fu.tr.OnWrite(fu.src.flow.written(now))
	fu.tr.PollOnce()
	sh.trackerPolls++
	sketch := overload.Tier(sh.tier[slot]) <= overload.TierSketch
	fu.tr.Estimates().DrainLog(func(mm core.Measurement) {
		flg := mm.Confidence == core.ConfidenceLow
		if sketch {
			observe(sh.seSnd, mm.At, mm.Delay.Seconds(), flg)
		}
		fu.esc.Observe(mm.At, mm.Delay.Seconds())
		fu.samples++
	})
}

// observe routes one sample into a stream series with its flag.
func observe(se *stream.Series, at units.Time, v float64, flagged bool) {
	if flagged {
		se.ObserveFlagged(at, v)
	} else {
		se.Observe(at, v)
	}
}

// escalate installs full-granularity state on a slot: a real
// SenderTracker (Detached — the shard drives every poll) over the
// flow's synthetic socket surface, restored from cp when the flow is
// resuming from a snapshot, plus the windowed escalator that will decide
// when the flow has been clean long enough to demote.
func (sh *scaleShard) escalate(slot int32, now units.Time, cp *core.SenderCheckpoint) *scaleFull {
	cfg := &sh.fl.cfg
	src := &synthSource{flow: sh.flows[slot], now: now}
	fu := &scaleFull{src: src, esc: stream.NewEscalator(stream.Rules{P99Above: cfg.EscalateAbove}, cfg.Window), promotedAt: now}
	opts := core.TrackerOptions{Interval: cfg.Interval, Detached: true}
	if cp != nil {
		fu.tr = core.RestoreSenderTracker(sh.eng, src, *cp, opts)
	} else {
		fu.tr = core.NewSenderTrackerOpts(sh.eng, src, opts)
	}
	sh.full[slot] = fu
	return fu
}

// promote escalates a flow whose lite estimates tripped the trigger.
func (sh *scaleShard) promote(slot int32, now units.Time) {
	fu := sh.escalate(slot, now, nil)
	fu.tr.OnWrite(sh.flows[slot].written(now))
	sh.sndStreak[slot] = 0
	sh.escalations++
}

// demote tears a flow's full state down and warm-resets its lite send
// column from the closed-form counters at the demotion instant.
func (sh *scaleShard) demote(slot int32, now units.Time, confirmed bool) {
	fu := sh.full[slot]
	fu.tr.Stop()
	delete(sh.full, slot)
	sh.sndPrev[slot] = sh.flows[slot].acked(now)
	sh.sndRate[slot] = 0
	sh.sndStreak[slot] = 0
	sh.fl.demotions++
	if !confirmed {
		sh.fl.falseAlarms++
	}
	if gov := sh.fl.pipe.gov; gov != nil {
		gov.SetHot(int(sh.ids[slot]), false)
	}
}

// falseAlarmWindows is the false-alarm horizon: an escalated flow whose
// windowed rules never confirm within this many stream windows is demoted
// and counted in FalseAlarms.
const falseAlarmWindows = 3

// escalationTick runs at every barrier, single-threaded: settle each
// escalated flow's windowed escalator up to the barrier and demote the
// flows it has cleared (or never confirmed within the false-alarm
// horizon). Decisions are a pure function of the flow's own samples.
func (f *ScaleFleet) escalationTick(now units.Time) {
	horizon := falseAlarmWindows * f.cfg.Window
	for _, sh := range f.shards {
		for slot, fu := range sh.full {
			if !fu.hotSet {
				// Promoted since the last barrier (on the shard
				// goroutine, where the governor must not be touched):
				// mark it hot now.
				fu.hotSet = true
				if gov := f.pipe.gov; gov != nil {
					gov.SetHot(int(sh.ids[slot]), true)
				}
			}
			fu.esc.AdvanceTo(now)
			switch {
			case fu.esc.Escalations() > 0 && !fu.esc.Escalated():
				// Confirmed, then demoted by clean windows.
				sh.demote(slot, now, true)
			case fu.esc.Escalations() == 0 && now.Sub(fu.promotedAt) >= horizon:
				// The windowed rules never agreed with the lite
				// trigger: a false alarm.
				sh.demote(slot, now, false)
			}
		}
	}
}

// meterUsage assembles the governor's pressure inputs at a barrier.
// LiveFull reports the escalated population — in scale mode full
// granularity is escalation-driven, so the governor's own tier census
// cannot see it. The same census also sets the promotion gate.
func (f *ScaleFleet) meterUsage(units.Time) overload.Usage {
	var u overload.Usage
	for _, sh := range f.shards {
		u.LiveFull += len(sh.full)
		u.SketchBytes += sh.stream.ApproxBytes()
		for _, fu := range sh.full {
			u.RetainedSamples += fu.samples
		}
	}
	// The promotion gate closes while the escalated census is at or
	// over the LiveFull budget: the governor can only demote after the
	// fact, so the gate is what bounds the full-tier population between
	// its ticks (modulo one slice's worth of in-flight promotions).
	if b := f.cfg.Overload.Budgets.LiveFull; b > 0 {
		f.promoteOK = u.LiveFull < b
	}
	return u
}

// applyTier lands one governor transition on its flow's home slot.
func (f *ScaleFleet) applyTier(tr overload.Transition, now units.Time) {
	sh, slot := f.shardSlot(tr.Flow)
	sh.tier[slot] = uint8(tr.To)
	if tr.To >= overload.TierCounters && sh.full[slot] != nil {
		// Degraded below sketch granularity: the full tracker goes
		// too, confirmed or not.
		sh.demote(slot, now, sh.full[slot].esc.Escalations() > 0)
	}
	if tr.From == overload.TierParked && tr.To < overload.TierParked {
		// Unparked: warm-reset both lite columns from the
		// closed-form counters so the first poll back never spans
		// the parked gap.
		fl := sh.flows[slot]
		sh.sndPrev[slot] = fl.acked(now)
		sh.rcvPrev[slot] = fl.read(now)
		sh.sndRate[slot], sh.rcvRate[slot] = 0, 0
		sh.sndStreak[slot] = 0
		sh.lastPoll[slot] = int64(now)
	}
}

// drain finishes the run: seal through the final window, stop the
// escalated trackers, fold counters, and compute the run-wide
// quantiles. Then it drops what only a running fleet reads: every
// shard's scaleRun, the escalators, the run-wide window and the
// pipeline's streams, sink and governor.
func (f *ScaleFleet) drain() *ScaleResult {
	f.pipe.finish()

	res := &ScaleResult{
		Flows:       f.cfg.Flows,
		Demotions:   f.demotions,
		FalseAlarms: f.falseAlarms,
		Restores:    f.restores,
	}
	for _, sh := range f.shards {
		res.Escalations += sh.escalations
		res.Polls += sh.polls
		res.TrackerPolls += sh.trackerPolls
		res.Flagged += sh.flagged
		res.ParkedSkips += sh.parkedSkips
		res.StreamLate += sh.stream.Late()
		res.Escalated += len(sh.full)
		for _, fu := range sh.full {
			res.RetainedSamples += fu.samples
			// Snapshot encodes the tracker's checkpoint; nothing
			// reads the escalator or the drained estimate log again.
			fu.tr.Stop()
			fu.tr.Estimates().Packed().Trim()
			fu.esc = nil
		}
	}
	res.StreamWindows = f.pipe.windows
	res.StreamErr = f.pipe.sinkErr
	if gov := f.pipe.gov; gov != nil {
		res.Sheds = gov.Sheds()
		res.Reclaims = gov.Reclaims()
		res.TierCounts = gov.TierCounts()
	}
	if len(f.total.Sketches) >= 2 {
		res.SndP50 = f.total.Sketches[0].Quantile(0.50)
		res.SndP99 = f.total.Sketches[0].Quantile(0.99)
		res.RcvP99 = f.total.Sketches[1].Quantile(0.99)
	}
	f.foldTelemetry(res)
	for _, sh := range f.shards {
		sh.scaleRun = scaleRun{}
	}
	f.total = stream.Window{}
	f.pipe.release()
	return res
}

// foldTelemetry publishes the run's counters into the caller's
// telemetry, including the poll counters the elembench -metrics-summary
// per-poll cost line normalizes by.
func (f *ScaleFleet) foldTelemetry(res *ScaleResult) {
	if f.cfg.Telem == nil {
		return
	}
	sc := f.cfg.Telem.Scope("scale")
	// Lite polls are pairs of per-side polls plus the driven tracker
	// polls on the send side.
	sc.Counter("snd_polls").Add(float64(res.Polls/2 + res.TrackerPolls))
	sc.Counter("rcv_polls").Add(float64(res.Polls / 2))
	sc.Counter("escalations").Add(float64(res.Escalations))
	sc.Counter("demotions").Add(float64(res.Demotions))
	sc.Counter("false_alarms").Add(float64(res.FalseAlarms))
	sc.Counter("flagged").Add(float64(res.Flagged))
	sc.Counter("stream_windows").Add(float64(res.StreamWindows))
}
