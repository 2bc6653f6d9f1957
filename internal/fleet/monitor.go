package fleet

import (
	"math/rand"

	"element/internal/apps"
	"element/internal/core"
	"element/internal/faults"
	"element/internal/overload"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/telemetry/stream"
	"element/internal/units"
	"element/internal/waterfall"
)

// monitorState is the supervisor's view of one monitor.
type monitorState int

const (
	stateIdle    monitorState = iota // connection not opened yet
	stateRunning                     // polling
	stateBackoff                     // crashed, restart scheduled
	stateDone                        // drained
)

// churnPlan is one connection's pre-drawn schedule. Zero times mean "never".
type churnPlan struct {
	openAt  units.Duration
	closeAt units.Duration
	crashAt units.Duration
	stallAt units.Duration
}

// drawPlan consumes the connection's private RNG in a fixed order so the
// schedule is a pure function of (seed, connection ID), independent of
// every other connection and of the shard layout.
func drawPlan(cfg Config, rng *rand.Rand) churnPlan {
	var p churnPlan
	if w := cfg.Churn.OpenWindow; w > 0 {
		p.openAt = units.Duration(rng.Int63n(int64(w) + 1))
	}
	mid := func(lo, hi float64) units.Duration {
		span := float64(cfg.Duration) * (hi - lo)
		return units.Duration(float64(cfg.Duration)*lo + rng.Float64()*span)
	}
	// Every branch draws the same number of variates whether or not the
	// fault is selected, keeping plans independent across connections.
	crashRoll, crashAt := rng.Float64(), mid(0.25, 0.7)
	if crashRoll < cfg.Churn.CrashFrac {
		p.crashAt = crashAt
	}
	stallRoll, stallAt := rng.Float64(), mid(0.25, 0.7)
	if stallRoll < cfg.Churn.StallFrac {
		p.stallAt = stallAt
	}
	closeRoll, closeAt := rng.Float64(), mid(0.5, 0.9)
	if closeRoll < cfg.Churn.CloseFrac {
		p.closeAt = closeAt
	}
	return p
}

// Monitor supervises one connection's ELEMENT instance: it owns the
// trackers (and minimizer), drives every poll under panic recovery, and
// keeps the crash-safe checkpoint the supervisor restores from. A monitor
// lives entirely on one shard; its RNG stream and fault injector are
// derived from the connection ID so its behaviour never depends on which
// shard runs it.
//
// What only a running monitor reads is its monitorRun; drain grades,
// fills the ConnResult and zeroes it, so a drained monitor keeps its
// stitched series, its held checkpoint (less the in-flight records) and
// its counters, and no connection, collector or tracker.
type Monitor struct {
	ID   int
	fl   *Fleet
	sh   *shard
	plan churnPlan
	monitorRun

	closed bool // closed early by churn

	// state gates the app-side feed (OnWrite/OnRead): only a running
	// monitor observes; a dead monitor's connection keeps moving bytes,
	// it just goes unobserved.
	state monitorState
	// wedged simulates a stuck monitor thread: the poll loop stops
	// silently and only the watchdog can notice.
	wedged    bool
	crashNext bool

	// Crash-safe state: the last checkpoint, held as the checkpoint
	// values themselves and refilled in place every checkpointEvery.
	// Restores start from these — state lost since the last checkpoint
	// stays lost, exactly like a process that died before fsync. They are
	// encoded only when they leave the process (Fleet.Snapshot) and
	// decoded only when they enter it (Config.Resume, in New).
	sndCP     core.SenderCheckpoint
	rcvCP     core.ReceiverCheckpoint
	minCP     core.MinimizerCheckpoint
	haveCP    bool // sndCP and rcvCP hold a checkpoint
	haveMinCP bool // minCP holds one

	// Series stitched across incarnations, flushed after every poll: the
	// only copy of a measurement the monitor keeps, packed as delta
	// varints that are never re-copied; drain grades them packed and hands
	// them over. In stream mode these stay empty except while the flow is
	// escalated.
	sndLog, rcvLog stats.Log[core.Measurement]

	// gated: escalation gates the flow's waterfall recorder
	// (Recorder.Gate).
	gated bool

	// Overload state (zero without Config.Overload): the flow's current
	// ladder tier, when it was parked (for the unpark outage fold), and
	// the shed accounting.
	tier        overload.Tier
	parkedAt    units.Time
	sheds       int
	shedSamples int

	// Watchdog progress mark: total polls at the last check.
	pollMark int

	backoffCur units.Duration
	restarts   int
	crashes    int
	recycles   int
}

// monitorRun is what only a running monitor reads: the connection and
// everything observing or feeding off it. Monitor.drain zeroes it.
type monitorRun struct {
	conn *stack.Conn
	gt   *waterfall.Truth // ground truth (exit-export mode only)
	wf   *waterfall.Recorder
	// esc is the per-flow escalation state machine (nil without
	// Config.Stream rules).
	esc *stream.Escalator

	// rng is the connection's private stream: the churn plan (at build
	// time) and the bottleneck discipline draw here, never from a shared
	// engine RNG. Restarts draw nothing: backoff has no jitter.
	rng *rand.Rand
	// inj is the connection's private fault injector (nil when the fleet
	// has no fault profile).
	inj    *faults.Injector
	sndSrc core.InfoSource
	rcvSrc core.InfoSource

	snd *core.SenderTracker
	rcv *core.ReceiverTracker
	min *core.Minimizer
}

// open builds the connection, starts traffic, and starts the monitor.
func (m *Monitor) open() {
	sh := m.sh
	sh.buildConn(m)
	if m.fl.cfg.Fanout == nil {
		// Fanout mode replaces the bulk writer/reader with the group
		// workload, started once the whole group is open.
		apps.StartBulk(sh.eng, monitorWriter{m}, monitorReader{m}, apps.DefaultChunk,
			units.Time(m.fl.cfg.Duration), m.inj)
	}
	if m.haveCP {
		// Resume path: the fleet seeded the held checkpoint from a
		// prior run's snapshot, so the first incarnation restores —
		// counting the Restores anomaly, with bounds widened per the
		// rebase contract — instead of starting a fresh series.
		m.restore()
	} else {
		// The birth checkpoint: a monitor that dies before its first
		// periodic checkpoint restores from its fresh trackers, rebased
		// on the counters that moved while it was down, instead of
		// starting empty trackers over non-zero counters.
		m.startFresh()
		m.hold()
	}
	if at := m.plan.crashAt; at > 0 {
		sh.eng.At(units.Time(at), func() { m.crashNext = true })
	}
	if at := m.plan.stallAt; at > 0 {
		sh.eng.At(units.Time(at), func() { m.wedged = true })
	}
	if at := m.plan.closeAt; at > 0 {
		sh.eng.At(units.Time(at), func() {
			m.closed = true
			m.conn.Close()
		})
	}
}

// connOpen reports whether the connection was opened and not closed.
func (m *Monitor) connOpen() bool { return m.state != stateIdle && !m.closed }

// monitorWriter and monitorReader are the bulk app's socket ends. The
// app feeds the trackers only while the monitor is alive — a crashed
// monitor misses writes and reads, and the restored one picks the
// cumulative counters back up.
type monitorWriter struct{ m *Monitor }

func (w monitorWriter) Write(p *sim.Proc, n int) int {
	m := w.m
	got := m.conn.Sender.Write(p, n)
	if got > 0 && m.state == stateRunning {
		cum := m.conn.Sender.WrittenCum()
		m.snd.OnWrite(cum)
		if m.min != nil {
			m.min.AfterSend(p, cum)
		}
	}
	return got
}

type monitorReader struct{ m *Monitor }

func (r monitorReader) Read(p *sim.Proc, max int) int {
	m := r.m
	got := m.conn.Receiver.Read(p, max)
	if got > 0 && m.state == stateRunning {
		m.rcv.OnRead(m.conn.Receiver.ReadCum(), got, got < max)
	}
	return got
}

// startFresh brings up the first monitor incarnation when there is no
// checkpoint to restore.
func (m *Monitor) startFresh() {
	cfg := m.fl.cfg
	opts := core.TrackerOptions{Interval: cfg.Interval, Detached: true}
	m.snd = core.NewSenderTrackerOpts(m.sh.eng, m.sndSrc, opts)
	m.rcv = core.NewReceiverTrackerOpts(m.sh.eng, m.rcvSrc, opts)
	if cfg.Minimize {
		m.min = core.NewMinimizerDetached(m.sh.eng, m.sndSrc, m.snd, core.MinimizerConfig{})
	}
	m.becomeRunning()
}

// restore brings up an incarnation from the held checkpoint.
func (m *Monitor) restore() {
	cfg := m.fl.cfg
	opts := core.TrackerOptions{Interval: cfg.Interval, Detached: true}
	m.snd = core.RestoreSenderTracker(m.sh.eng, m.sndSrc, m.sndCP, opts)
	m.rcv = core.RestoreReceiverTracker(m.sh.eng, m.rcvSrc, m.rcvCP, opts)
	switch {
	case cfg.Minimize && m.haveMinCP:
		m.min = core.RestoreMinimizer(m.sh.eng, m.snd, m.minCP)
	case cfg.Minimize:
		m.min = core.NewMinimizerDetached(m.sh.eng, m.sndSrc, m.snd, core.MinimizerConfig{})
	}
	m.becomeRunning()
}

// seed holds a snapshot entry's checkpoints, decoded once, as the
// monitor's own: the first incarnation restores from them. Trackers that
// do not decode leave the monitor without a checkpoint, so it starts a
// fresh series; a minimizer that does not decode starts fresh on the
// restored trackers.
func (m *Monitor) seed(cs ConnSnapshot) {
	m.haveCP, m.haveMinCP = false, false
	scp, err := core.UnmarshalSenderCheckpoint(cs.Snd)
	if err != nil {
		return
	}
	rcp, err := core.UnmarshalReceiverCheckpoint(cs.Rcv)
	if err != nil {
		return
	}
	m.sndCP, m.rcvCP, m.haveCP = scp, rcp, true
	if mcp, err := core.UnmarshalMinimizerCheckpoint(cs.Min); err == nil {
		m.minCP, m.haveMinCP = mcp, true
	}
}

func (m *Monitor) becomeRunning() {
	m.state = stateRunning
	m.pollMark = -1 // grace: the first watchdog pass after a start never fires
	m.scheduleTick()
}

// scheduleTick arms the next poll on the shard engine. The monitor rides
// along as the event's argument — no closure per poll.
func (m *Monitor) scheduleTick() {
	m.sh.eng.ScheduleCall(m.fl.cfg.Interval, tickMonitor, m)
}

func tickMonitor(arg any) { arg.(*Monitor).tick() }

// restartMonitor fires when a crashed monitor's backoff expires.
func restartMonitor(arg any) {
	m := arg.(*Monitor)
	if m.state != stateBackoff {
		return
	}
	m.doRestart()
}

// tick is one supervised poll: the only place tracker code runs, wrapped
// in recover so a panicking monitor takes down nothing but itself.
func (m *Monitor) tick() {
	if m.state != stateRunning {
		return
	}
	if m.wedged {
		// The monitor thread is stuck: no polls, no rescheduling. Only
		// the watchdog will notice.
		return
	}
	if m.tier == overload.TierParked {
		// Parked by the governor: zero observation, but the tick loop
		// stays armed so promotion needs no re-arm handshake with the
		// barrier — the flow resumes polling on its next interval.
		m.scheduleTick()
		return
	}
	ok := m.protectedPoll()
	if !ok {
		m.onCrash()
		return
	}
	m.flush()
	m.scheduleTick()
}

func (m *Monitor) protectedPoll() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	if m.crashNext {
		m.crashNext = false
		panic("fleet: injected monitor fault")
	}
	m.snd.PollOnce()
	m.rcv.PollOnce()
	if m.min != nil {
		m.min.CheckOnce()
	}
	return true
}

// flush drains what the trackers produced since the last flush and
// routes each measurement once (keep), so a tracker holds at most one
// poll's worth. Exporting incrementally is what makes the stitched series
// crash-safe: samples already flushed survive the incarnation that
// produced them.
func (m *Monitor) flush() {
	if m.snd != nil {
		m.snd.Estimates().DrainLog(func(mm core.Measurement) { m.keep(mm, true) })
	}
	if m.rcv != nil {
		m.rcv.Estimates().DrainLog(func(mm core.Measurement) { m.keep(mm, false) })
	}
}

// keep routes one drained measurement. In stream mode it goes to the
// shard's windowed sketches and the stitched series keeps it only while
// the flow is escalated, so per-connection memory stays constant. In
// exit mode the stitched series keeps it unless the governor shed the
// flow below full retention: then it is counted, not kept — the flow's
// Sheds anomaly and widened bounds already flag the gap.
func (m *Monitor) keep(mm core.Measurement, sender bool) {
	if m.sh.stream != nil {
		if !m.observeStream(mm, sender) {
			return
		}
	} else if m.tier >= overload.TierSketch {
		m.shedSamples++
		return
	}
	if sender {
		m.sndLog.Append(mm)
	} else {
		m.rcvLog.Append(mm)
	}
}

// The restart policy for crashed monitors: capped exponential backoff,
// no jitter (every run so far has restarted without it; adding it moves
// every restart time, so it waits for the digest ledger — ROADMAP item 2).
const (
	backoffInitial = 50 * units.Millisecond
	backoffMax     = 2 * units.Second
	backoffFactor  = 2
)

// onCrash handles a recovered panic: count it, drop the incarnation, and
// schedule a restart after the current backoff.
func (m *Monitor) onCrash() {
	m.crashes++
	m.dropIncarnation()
	m.state = stateBackoff
	delay := m.backoffCur
	m.backoffCur = min(delay*backoffFactor, backoffMax)
	m.sh.eng.ScheduleCall(delay, restartMonitor, m)
}

// watchdogCheck recycles a running monitor that made no poll progress
// since the previous check: checkpoint-less memory is untrusted, so the
// recycle restores from the last persisted checkpoint like a crash, but
// restarts immediately — the monitor is not failing repeatedly, it is
// merely stuck.
func (m *Monitor) watchdogCheck() {
	if m.state != stateRunning {
		return
	}
	if m.tier == overload.TierParked {
		// A parked monitor makes no poll progress by design; re-arm the
		// grace so the first check after unparking never fires either.
		m.pollMark = -1
		return
	}
	progress := 0
	if m.snd != nil {
		progress += m.snd.Polls()
	}
	if m.rcv != nil {
		progress += m.rcv.Polls()
	}
	if m.pollMark < 0 {
		m.pollMark = progress
		return
	}
	if progress != m.pollMark {
		m.pollMark = progress
		return
	}
	m.recycles++
	m.wedged = false
	m.dropIncarnation()
	m.doRestart()
}

func (m *Monitor) dropIncarnation() {
	if m.snd != nil {
		m.snd.Stop()
	}
	if m.rcv != nil {
		m.rcv.Stop()
	}
	if m.min != nil {
		m.min.Stop()
		m.min = nil
	}
	m.snd, m.rcv = nil, nil
}

func (m *Monitor) doRestart() {
	m.restarts++
	m.restore()
}

// checkpoint refills the held checkpoint from the live trackers, in
// place: a steady-state checkpoint allocates nothing. A state that could
// not be encoded — a non-finite float — is skipped whole and the previous
// checkpoint kept, so everything held survives Snapshot's encoding; the
// restore from held state equals one from its encoding
// (TestHeldCheckpointRoundTrip).
func (m *Monitor) checkpoint() {
	if m.state != stateRunning || m.wedged {
		return
	}
	if !m.snd.Encodable() || !m.rcv.Encodable() || (m.min != nil && !m.min.Encodable()) {
		return
	}
	m.hold()
	m.sh.checkpoints++
}

// hold refills the held checkpoint from the live trackers.
func (m *Monitor) hold() {
	m.snd.CheckpointInto(&m.sndCP)
	m.rcv.CheckpointInto(&m.rcvCP)
	if m.min != nil {
		m.minCP, m.haveMinCP = m.min.Checkpoint(), true
	}
	m.haveCP = true
}

// drain finishes the monitor: one last supervised poll so in-flight
// records get a final chance to match, then flush, reconcile against this
// connection's own ground truth and fill the ConnResult. Nothing runs or
// restores again, so drain then lets go of the run: the connection, its
// collector, recorder, escalator and trackers, and the held checkpoint's
// in-flight records (Snapshot encodes only Rebase, which drops them).
func (m *Monitor) drain() *ConnResult {
	cr := &ConnResult{ID: m.ID, Restarts: m.restarts, Crashes: m.crashes, Recycles: m.recycles, Closed: m.closed}
	if m.state == stateRunning && !m.wedged && m.tier != overload.TierParked {
		m.protectedPoll()
		m.flush()
	}
	if m.snd != nil {
		cr.Anomalies = m.snd.Anomalies()
		cr.Anomalies.Add(m.rcv.Anomalies())
	}
	if m.esc != nil {
		// Evaluate the partial last window so a run ending mid-window
		// still counts its final evidence.
		if changed := m.esc.Finish(); changed {
			m.setEscalated(m.esc.Escalated())
		}
		cr.Escalations = int(m.esc.Escalations())
		cr.Demotions = int(m.esc.Demotions())
		cr.Escalated = m.esc.Escalated()
	}
	cr.Tier = m.tier
	cr.Sheds = m.sheds
	cr.ShedSamples = m.shedSamples
	m.dropIncarnation()
	m.state = stateDone
	// Grade the packed series, then hand them over as they are, trimmed:
	// neither grows again.
	if m.gt != nil {
		cr.Sender, _ = core.CheckSenderLog(&m.sndLog, &m.gt.Sender, m.fl.cfg.Interval)
		cr.Receiver, _ = core.CheckReceiverLog(&m.rcvLog, &m.gt.Receiver)
	}
	m.sndLog.Trim()
	m.rcvLog.Trim()
	cr.SndLog, cr.RcvLog = m.sndLog, m.rcvLog
	if m.conn != nil {
		active := m.fl.cfg.Duration - m.plan.openAt
		if m.plan.closeAt > 0 {
			active = m.plan.closeAt - m.plan.openAt
		}
		if active > 0 {
			cr.GoodputBps = float64(m.conn.Receiver.ReadCum()) * 8 / active.Seconds()
		}
	}
	m.monitorRun = monitorRun{}
	m.sndCP.Records, m.rcvCP.Records = nil, nil
	return cr
}
