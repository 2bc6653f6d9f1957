// Package fleet is the supervision layer that runs ELEMENT monitors over
// many concurrent connections. Each connection gets a monitor — the
// Algorithm 1 sender tracker, the Algorithm 2 receiver tracker and
// optionally the Algorithm 3 minimizer — driven poll-by-poll by the
// supervisor so every poll runs under a panic-recovery wrapper. A crashed
// monitor is restarted with capped exponential backoff; a
// wedged monitor (no poll progress within the watchdog deadline) is
// recycled. Restarts resume from the last checkpoint, which the monitor
// holds as the checkpoint values themselves, so the estimate series
// continues with bounds widened over the outage
// window instead of starting over — the connection itself keeps carrying
// traffic throughout; a monitor failure never kills the flow it watches.
//
// Execution is sharded: the fleet splits its connections across worker
// shards, each owning a private deterministic engine, and advances all
// shards in parallel between barrier points. Every source of randomness a
// connection can observe — churn plan, fault injection —
// is drawn from a per-connection RNG stream derived from the seed and the
// connection ID, never from a shared engine RNG, so a run's results are a
// pure function of the seed regardless of shard count or interleaving:
// same-seed runs produce identical per-connection series and counters
// whether they execute on one shard or sixteen. Per-shard telemetry and
// waterfall buffers keep the hot paths single-threaded and are merged
// into the caller's instances when the run drains.
package fleet

import (
	"context"
	"fmt"
	"math/rand"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/faults"
	"element/internal/netem"
	"element/internal/overload"
	"element/internal/pkt"
	"element/internal/reqtrace"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/units"
	"element/internal/waterfall"
)

// Defaults for Config fields left zero.
const (
	DefaultConnections = 8
	DefaultDuration    = 10 * units.Second
	DefaultRate        = 4 * units.Mbps
	DefaultRTT         = 40 * units.Millisecond
)

// checkpointEvery is the periodic checkpoint cadence; it bounds how much
// estimator state a crash can lose.
const checkpointEvery = 500 * units.Millisecond

// ChurnConfig describes the connection/monitor churn schedule. All draws
// come from each connection's private seeded RNG stream, so the schedule
// is a pure function of (seed, connection ID) — independent of shard
// count and of every other connection.
type ChurnConfig struct {
	// OpenWindow staggers connection opens uniformly over [0, OpenWindow]
	// (0 = all connections open at t=0).
	OpenWindow units.Duration
	// CloseFrac is the fraction of connections that close early,
	// somewhere in the middle of the run. The monitor keeps polling a
	// closed connection until the fleet drains — draining matched records
	// is part of its job.
	CloseFrac float64
	// CrashFrac is the fraction of monitors that panic mid-poll at a
	// scheduled time. The supervisor recovers, backs off, and restores
	// from the last checkpoint.
	CrashFrac float64
	// StallFrac is the fraction of monitors that silently wedge (their
	// poll loop stops making progress). The watchdog detects and recycles
	// them.
	StallFrac float64
}

// Config describes a fleet run.
type Config struct {
	Seed        int64
	Connections int
	Duration    units.Duration
	// Rate/RTT shape each connection's private path.
	Rate units.Rate
	RTT  units.Duration
	// Interval is the TCP_INFO polling period per monitor (0 = 10 ms).
	Interval units.Duration
	// Minimize runs the Algorithm 3 minimizer on every monitor.
	Minimize bool

	// Shards is the number of worker shards the connections are split
	// across, each advancing its own engine on its own goroutine between
	// barrier points, and draining its own monitors on it at the end
	// (0 = GOMAXPROCS, capped at Connections; 1 = fully inline
	// single-threaded execution). Results are byte-identical across
	// shard counts for a fixed seed.
	Shards int

	Churn ChurnConfig

	// Faults composes a fault-injection profile over the whole fleet:
	// every monitor polls a degraded TCP_INFO view and every path gets
	// the profile's chaos, each connection drawing from its own derived
	// fault stream.
	Faults *faults.Profile
	// Telem publishes fleet health gauges and restart/crash/recycle/
	// checkpoint counters under the "fleet" component, folded from the
	// Result at drain (nil disables). Shards record their connections'
	// telemetry into private buffers that merge into this instance then.
	Telem *telemetry.Telemetry
	// Waterfall attaches per-byte-range delay attribution to every
	// connection (nil disables). Per-shard waterfalls are absorbed into
	// this instance at drain time. Their recorders are join-only
	// (waterfall.NewJoinOnly): each Breakdown, and so Aggregate, is
	// exact, marker counts included, but no recorder keeps a range or a
	// marker. With Stream escalation rules enabled, recorders are bound
	// but gated shut until a flow escalates.
	Waterfall *waterfall.Waterfall

	// Stream enables the bounded-memory streaming telemetry pipeline
	// (nil disables): per-shard windowed sketches merged at barriers,
	// bounded export, and optional sketch-driven escalation.
	Stream *StreamConfig

	// Overload enables the budgeted degradation governor (nil disables):
	// at every barrier the fleet meters its retained samples, sketch
	// bytes, export rate and queue depth against the configured budgets
	// and walks individual flows down (and back up) the degradation
	// ladder — full → sketch-only → counters-only → parked. Every
	// demotion sheds tracker state through core's Shed hook, so the
	// affected flow's samples carry widened error bounds and a Sheds
	// anomaly instead of silently skewing. Decisions run at the barrier
	// on the coordinator, so they are byte-identical for a fixed seed at
	// any shard count.
	Overload *overload.Config

	// ExportQueue fronts the stream sink with a bounded backpressured
	// queue (nil = direct export): deliveries retry with capped
	// exponential backoff plus seeded jitter behind a circuit breaker,
	// so a wedged or flapping sink costs queue depth — visible to the
	// governor as pressure — instead of lost windows or a stuck run.
	// Ignored without Config.Stream and a non-nil sink.
	ExportQueue *overload.QueueConfig

	// DrainTimeout bounds the end-of-run export-backlog drain: after the
	// last barrier the fleet keeps advancing the queue's retry clock
	// until the backlog empties or this much extra virtual time elapses,
	// then force-flushes whatever remains and marks the result
	// ExportTruncated (0 = 2 s grace, negative = no grace).
	DrainTimeout units.Duration

	// Resume restores estimator state and governor tiers from a prior
	// run's Snapshot. Monitors re-home onto this run's shard layout by
	// connection ID — the snapshot's shard count is irrelevant — and
	// every restored tracker counts a Restores anomaly with bounds
	// widened per the rebase contract in internal/core.
	Resume *Snapshot

	// QueuePackets overrides each connection's bottleneck queue depth in
	// packets (0 = the discipline's default — for the standard FIFO the
	// paper's bufferbloat-deep 1000 packets).
	QueuePackets int
	// Disc selects the bottleneck AQM discipline ("" = pfifo_fast).
	Disc aqm.Kind
	// CC selects every connection's congestion control ("" = cubic).
	CC cc.Kind

	// Fanout switches the workload from per-connection bulk transfer to
	// grouped fan-out RPC with request-scoped span tracing (nil = bulk).
	// Fanout mode implies per-connection waterfalls, forces open-at-zero
	// and no early closes (a group's request stream needs all its legs),
	// and disables the minimizer.
	Fanout *FanoutConfig
}

// slice is the barrier interval: shards advance in parallel between
// barriers of this length.
func (c Config) slice() units.Duration { return barrierSlice(c.Duration, c.Interval) }

func (c Config) normalize() Config {
	if c.Connections <= 0 {
		c.Connections = DefaultConnections
	}
	if c.Duration <= 0 {
		c.Duration = DefaultDuration
	}
	if c.Rate <= 0 {
		c.Rate = DefaultRate
	}
	if c.RTT <= 0 {
		c.RTT = DefaultRTT
	}
	if c.Interval <= 0 {
		c.Interval = core.DefaultInterval
	}
	if c.Fanout != nil {
		fo := *c.Fanout // callers keep their struct; normalize a copy
		fo.normalize()
		c.Fanout = &fo
		if rem := c.Connections % fo.Degree; rem != 0 {
			c.Connections += fo.Degree - rem
		}
		c.Churn.OpenWindow = 0
		c.Churn.CloseFrac = 0
		c.Minimize = false
	}
	return c
}

// connSeed derives the RNG stream seed for one connection (or, with
// negative ids, one shard engine) from the run seed: a splitmix64
// finalizer over seed+id, so neighbouring ids get decorrelated streams
// and the mapping never depends on shard layout.
func connSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(int64(id)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// shard is one worker: a private engine plus the monitors pinned to it.
// Everything a shard touches while the clock advances — engine, sockets,
// telemetry, waterfall, supervisor timers — is shard-local, so shards
// never synchronize between barriers. All of it is the shard's shardRun,
// which drain zeroes once it has merged it into the Result and the
// caller's instances.
type shard struct {
	fl       *Fleet
	monitors []*Monitor
	shardRun

	// Periodic checkpoints, summed into the Result at drain: unlike
	// restarts, they have no per-connection home.
	checkpoints int
}

// shardRun is what only a running shard reads.
type shardRun struct {
	eng  *sim.Engine
	pkts *pkt.Pool // one free list for every connection's Net on eng

	// Per-shard observability buffers (nil when the fleet's are nil),
	// merged into Config.Telem / Config.Waterfall at drain.
	telem *telemetry.Telemetry
	wf    *waterfall.Waterfall

	// rt is the shard's request-span tracer (nil without Config.Fanout);
	// absorbed into the caller's tracer at drain.
	rt *reqtrace.Tracer

	// Streaming pipeline (nil when Config.Stream is nil): the shard's
	// windowed sketches plus the tracker delay series handles.
	stream       *stream.Stream
	seSnd, seRcv *stream.Series
}

// Fleet is a built supervision run ready to execute.
type Fleet struct {
	cfg      Config
	shards   []*shard
	monitors []*Monitor // all monitors in connection-ID order

	// pipe is the barrier pipeline: the run loop, the per-shard stream
	// seal/merge/export and the overload governor.
	pipe pipeline

	// Export chain (nil without Config.Stream / Config.ExportQueue): the
	// backpressured queue fronting the sink chain and the fleet-level
	// sink fault injector. baseSink is the chain below the queue, kept
	// for export-rate metering; the pipeline exports to the top of it.
	queue    *overload.Queue
	sinkInj  *faults.SinkInjector
	baseSink stream.Sink
	// Export-rate metering: bytes the base sink had written at the last
	// governor tick.
	exportMark int
	lastTickAt units.Time
}

// New builds the fleet: shard engines, per-connection paths and sockets,
// churn plans, supervisor timers. Nothing runs until Run.
func New(cfg Config) *Fleet {
	cfg = cfg.normalize()
	nshards := shardCount(cfg.Shards, cfg.Connections)
	if g := cfg.groups(); g > 0 && nshards > g {
		// Groups are shard-atomic: never split a fan-out group.
		nshards = g
	}
	f := &Fleet{cfg: cfg}
	f.buildPipeline(nshards)

	for s := 0; s < nshards; s++ {
		sh := &shard{fl: f, shardRun: shardRun{eng: sim.New(connSeed(cfg.Seed, -1-s)), pkts: pkt.NewPool()}}
		if cfg.Telem != nil {
			sh.telem = telemetry.New()
			sh.telem.SetClock(sh.eng.Now)
		}
		if cfg.Waterfall != nil || cfg.Fanout != nil {
			// The caller's waterfall is read for its aggregate and the span
			// tracer joins on finalized ranges: nothing reads the ranges
			// or markers a recorder would retain.
			sh.wf = waterfall.NewJoinOnly()
			sh.wf.SetClock(sh.eng.Now)
			sh.wf.Instrument(sh.telem.Scope("waterfall"))
		}
		if cfg.Fanout != nil {
			sh.rt = reqtrace.New()
			sh.rt.SetClock(sh.eng.Now)
		}
		if cfg.Stream != nil {
			sh.buildStream(cfg)
		}
		f.shards = append(f.shards, sh)
	}

	// Churn plans draw from each connection's private stream at build
	// time, so the whole schedule is fixed before any event runs and is
	// identical however the connections are sharded. Sink faults live at
	// the fleet's export layer, so a sink-only profile builds no
	// per-connection injectors.
	injectFaults := cfg.Faults != nil && cfg.Faults.ConnActive()
	for i := 0; i < cfg.Connections; i++ {
		si := i % nshards
		if cfg.Fanout != nil {
			si = (i / cfg.Fanout.Degree) % nshards
		}
		sh := f.shards[si]
		m := &Monitor{
			ID:         i,
			fl:         f,
			sh:         sh,
			monitorRun: monitorRun{rng: rand.New(rand.NewSource(connSeed(cfg.Seed, i)))},
			backoffCur: backoffInitial,
		}
		if injectFaults {
			m.inj = faults.New(sh.eng, *cfg.Faults, connSeed(cfg.Seed, i)+0x6661756c74) // "fault"
		}
		if cfg.Stream != nil && cfg.Stream.Rules.Enabled() {
			m.esc = stream.NewEscalator(cfg.Stream.Rules, cfg.streamCfg().Width)
			if sh.wf != nil && cfg.Fanout == nil {
				// Fanout mode never gates: the span tracer joins on every
				// finalized range, so recorders stay attached for the
				// whole run regardless of escalation state.
				m.gated = true
			}
		}
		m.plan = drawPlan(cfg, m.rng)
		if f.pipe.gov != nil {
			m.tier = f.pipe.gov.Tier(i)
		}
		f.monitors = append(f.monitors, m)
		sh.monitors = append(sh.monitors, m)
	}
	if cfg.Resume != nil {
		// Resume: seed the crash-restore path with the snapshot's rebased
		// checkpoints, by connection ID and decoded once here; open() then
		// restores instead of starting fresh, counting the Restores
		// anomaly. Entries outside this fleet's ID range, or without both
		// trackers, are dropped.
		for _, cs := range cfg.Resume.Conns {
			if cs.ID < 0 || cs.ID >= len(f.monitors) || len(cs.Snd) == 0 || len(cs.Rcv) == 0 {
				continue
			}
			f.monitors[cs.ID].seed(cs)
		}
	}

	for _, m := range f.monitors {
		m := m
		if m.plan.openAt > 0 {
			m.sh.eng.At(units.Time(m.plan.openAt), func() { m.open() })
		} else {
			m.open()
		}
	}

	if cfg.Fanout != nil {
		f.startFanout()
	}

	for _, sh := range f.shards {
		sh.scheduleWatchdog()
		sh.scheduleCheckpoints()
	}
	return f
}

// scheduleWatchdog arms the no-poll-progress check: a monitor that made
// no progress over ten polling intervals (at least 100 ms) is recycled.
func (sh *shard) scheduleWatchdog() {
	deadline := max(10*sh.fl.cfg.Interval, 100*units.Millisecond)
	sh.eng.Schedule(deadline, func() {
		for _, m := range sh.monitors {
			m.watchdogCheck()
		}
		sh.scheduleWatchdog()
	})
}

func (sh *shard) scheduleCheckpoints() {
	sh.eng.Schedule(checkpointEvery, func() {
		for _, m := range sh.monitors {
			m.checkpoint()
		}
		sh.scheduleCheckpoints()
	})
}

// buildConn constructs one connection's private path, net, ground-truth
// collector and socket pair on this shard's engine.
func (sh *shard) buildConn(m *Monitor) {
	eng := sh.eng
	cfg := sh.fl.cfg
	fwd := netem.LinkConfig{Rate: cfg.Rate, Delay: cfg.RTT / 2}
	if cfg.QueuePackets > 0 || cfg.Disc != "" {
		// The discipline draws from the connection's private stream, so
		// AQM randomness (PIE) never couples connections across shards.
		fwd.Discipline = aqm.MustNew(cfg.Disc, aqm.Config{LimitPackets: cfg.QueuePackets}, m.rng)
	}
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: fwd,
		Reverse: netem.LinkConfig{Rate: cfg.Rate, Delay: cfg.RTT / 2},
	})
	if m.inj != nil {
		m.inj.ApplyPath(path)
	}
	sh.wf.TapLink(path.Forward)
	sh.wf.TapLink(path.Reverse)
	net := stack.NewNetPool(eng, path, sh.pkts)
	// One stamp machine per connection: the shard waterfall's recorder,
	// or, for ground truth alone, a truth-only one.
	m.wf = sh.wf.NewFlow()
	if m.gated {
		// Escalation mode: the recorder is installed and bound but gated
		// off until the flow escalates.
		m.wf.Gate(false, 0)
	}
	if cfg.Stream == nil {
		// Ground truth costs O(samples) per connection; stream mode's
		// whole point is memory independent of sample count, so it only
		// exists in the exit-export mode, which never gates a recorder.
		m.gt = new(waterfall.Truth)
		if m.wf == nil {
			m.wf = waterfall.NewTruth(eng.Now)
		}
		m.wf.RecordTruth(m.gt)
	}
	m.conn = stack.Dial(net, stack.ConnConfig{
		// Every connection runs its own private Net, whose flow counter
		// would hand out the same ID fleet-wide; pin the globally unique
		// connection ID instead so the shard waterfall's by-flow link-tap
		// dispatch never aliases two connections.
		FlowID:        m.ID + 1,
		CC:            cfg.CC,
		SenderHooks:   m.wf.SenderHooks(),
		ReceiverHooks: m.wf.ReceiverHooks(),
		Telem:         sh.telem,
	})
	sh.wf.Bind(m.conn.FlowID, m.wf)
	m.sndSrc = core.InfoSource(m.conn.Sender)
	m.rcvSrc = core.InfoSource(m.conn.Receiver)
	if m.inj != nil {
		m.sndSrc = m.inj.WrapInfo(m.conn.Sender)
		m.rcvSrc = m.inj.WrapInfo(m.conn.Receiver)
	}
}

// Run executes the fleet to its configured duration, drains, and
// reconciles. Equivalent to RunContext(context.Background()).
func (f *Fleet) Run() *Result { return f.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: virtual time advances
// in slices — all shards in parallel up to each slice barrier — and a
// canceled context stops the run early; the fleet still drains, so
// partial series, telemetry and waterfall state are intact.
func (f *Fleet) RunContext(ctx context.Context) *Result {
	f.pipe.run(ctx)
	return f.drain(ctx.Err() != nil)
}

// drain is the graceful shutdown: every live monitor takes a final poll
// (so in-flight records get their last chance to match), flushes its
// series, is graded and lets go of its run state; each shard's parked
// processes are terminated, so no goroutine outlives the run and nothing
// records again, before its telemetry, waterfall and tracer merge into
// the caller's instances; then the shard lets go of its run state, and
// the fleet of its export chain. What is left is what Result and
// Snapshot read. Drain advances no engine, so no supervisor event fires
// once it begins. A monitor's drain touches only its own shard's state, so
// each shard drains its monitors, in connection-ID order, the way it
// advances: on its own worker. The coordinator then folds the results in
// ID order and does the rest on the calling goroutine.
func (f *Fleet) drain(interrupted bool) *Result {
	res := &Result{Config: f.cfg, Interrupted: interrupted, Conns: make([]*ConnResult, len(f.monitors))}
	// The health gauges read the monitors as the last barrier left them:
	// drain marks every one done.
	h := f.health()
	f.pipe.eachShard(func(i int, _ units.Time) {
		for _, m := range f.shards[i].monitors {
			res.Conns[m.ID] = m.drain()
		}
	}, f.pipe.now)
	for _, cr := range res.Conns {
		res.Sender.Merge(cr.Sender)
		res.Receiver.Merge(cr.Receiver)
		res.Evictions += cr.Anomalies.Evictions
		res.Restores += cr.Anomalies.Restores
		res.Restarts += cr.Restarts
		res.Crashes += cr.Crashes
		res.Recycles += cr.Recycles
		if cr.Escalated {
			res.Escalated++
		}
		res.Escalations += cr.Escalations
		res.Demotions += cr.Demotions
		res.ShedSamples += cr.ShedSamples
	}
	f.pipe.finish()
	f.drainExports(res)
	res.StreamWindows = f.pipe.windows
	res.StreamErr = f.pipe.sinkErr
	if gov := f.pipe.gov; gov != nil {
		res.Sheds = gov.Sheds()
		res.Reclaims = gov.Reclaims()
		res.TierCounts = gov.TierCounts()
		res.Parked = res.TierCounts[overload.TierParked]
	}
	res.SinkFaults = f.sinkInj.Failures()
	for _, sh := range f.shards {
		// Everything below takes state that records no more: Absorb's
		// precondition.
		sh.eng.Shutdown()
		res.Checkpoints += sh.checkpoints
		res.StreamLate += sh.stream.Late()
		res.StreamDropped += sh.stream.DroppedWindows()
		f.cfg.Telem.Merge(sh.telem)
		f.cfg.Waterfall.Absorb(sh.wf)
		if sh.rt != nil {
			res.Requests += sh.rt.Completed()
			res.RequestsAbandoned += sh.rt.Outstanding()
			f.cfg.Fanout.Tracer.Absorb(sh.rt)
		}
		// Nothing runs on the shard again. Its engine's queue and its
		// pool hold the last packets of every connection, and its
		// telemetry, waterfall and tracer are bound to the engine's clock.
		sh.shardRun = shardRun{}
	}
	f.foldTelemetry(res, h)
	// Nothing exports again; Result.Queue copied the queue's accounting.
	f.queue = nil
	f.pipe.release()
	return res
}

// health is the fleet's supervision state at one instant: what its
// health gauges publish.
type health struct{ running, backingOff, open int }

func (f *Fleet) health() (h health) {
	for _, m := range f.monitors {
		switch m.state {
		case stateRunning:
			h.running++
		case stateBackoff:
			h.backingOff++
		}
		if m.connOpen() {
			h.open++
		}
	}
	return h
}

// foldTelemetry publishes the run's supervision counters, from the
// Result, and the health gauges h into the caller's telemetry. It fills
// a private instance and merges it, so fleets sharing one telemetry add
// up, gauges included.
func (f *Fleet) foldTelemetry(res *Result, h health) {
	if f.cfg.Telem == nil {
		return
	}
	t := telemetry.New()
	sc := t.Scope("fleet")
	sc.Counter("restarts").Add(float64(res.Restarts))
	sc.Counter("crashes").Add(float64(res.Crashes))
	sc.Counter("watchdog_recycles").Add(float64(res.Recycles))
	sc.Counter("checkpoints").Add(float64(res.Checkpoints))
	if f.cfg.Stream != nil {
		sc.Counter("escalations").Add(float64(res.Escalations))
		sc.Counter("demotions").Add(float64(res.Demotions))
	}
	sc.Gauge("monitors_running").Set(float64(h.running))
	sc.Gauge("monitors_backing_off").Set(float64(h.backingOff))
	sc.Gauge("connections_open").Set(float64(h.open))
	f.cfg.Telem.Merge(t)
}

// Result is the reconciled outcome of a fleet run.
type Result struct {
	Config      Config
	Conns       []*ConnResult
	Sender      core.BoundCheck // merged across connections
	Receiver    core.BoundCheck
	Restarts    int
	Crashes     int
	Recycles    int
	Checkpoints int
	Evictions   int
	Restores    int
	Interrupted bool

	// Streaming pipeline accounting (zero when Config.Stream is nil).
	Escalations   int    // lightweight → full transitions across the fleet
	Demotions     int    // full → lightweight transitions
	Escalated     int    // flows still escalated at drain
	StreamWindows uint64 // merged fleet windows exported
	StreamLate    uint64 // samples beyond the watermark (anomalies)
	StreamDropped uint64 // windows lost to sealed-queue overflow
	StreamErr     error  // first sink error, if any

	// Fan-out accounting (zero when Config.Fanout is nil).
	Requests          uint64 // requests completed across all groups
	RequestsAbandoned uint64 // requests still in flight at drain

	// Overload accounting (zero without Config.Overload/ExportQueue).
	Sheds           int                    // ladder demotions across the fleet
	Reclaims        int                    // ladder promotions (recoveries)
	Parked          int                    // flows parked at drain
	ShedSamples     int                    // samples dropped below the sketch tier
	TierCounts      [overload.NumTiers]int // flows per tier at drain
	Queue           overload.QueueStats    // export-queue accounting
	SinkFaults      int                    // delivery attempts the injector rejected
	ExportTruncated bool                   // drain timeout expired with backlog remaining
}

// ConnResult is one connection's reconciliation against its own ground
// truth.
type ConnResult struct {
	ID         int
	Sender     core.BoundCheck
	Receiver   core.BoundCheck
	Anomalies  core.AnomalyCounts
	Restarts   int
	Crashes    int
	Recycles   int
	GoodputBps float64
	Closed     bool // closed early by churn
	// Escalation state (zero without stream escalation rules).
	Escalations int
	Demotions   int
	Escalated   bool // still escalated at drain
	// Overload state (zero without Config.Overload).
	Tier        overload.Tier // ladder tier at drain
	Sheds       int           // governor demotions applied to this flow
	ShedSamples int           // samples this flow dropped while below the sketch tier
	// SndLog/RcvLog are the full per-connection estimate series stitched
	// across monitor incarnations, packed as the monitor kept them: read
	// them by All, or Collect them.
	SndLog stats.Log[core.Measurement]
	RcvLog stats.Log[core.Measurement]
}

// Violations is the fleet-wide bounded-or-flagged violation count.
func (r *Result) Violations() int {
	return r.Sender.Violations + r.Receiver.Violations
}

func (r *Result) String() string {
	return fmt.Sprintf("fleet{conns=%d restarts=%d crashes=%d recycles=%d checkpoints=%d evictions=%d restores=%d violations=%d}",
		len(r.Conns), r.Restarts, r.Crashes, r.Recycles, r.Checkpoints, r.Evictions, r.Restores, r.Violations())
}
