package core

import (
	"math"

	"element/internal/sim"
	"element/internal/telemetry"
	"element/internal/units"
)

// Algorithm 3 parameter defaults, exactly the values the paper reports
// (§4.4: Δ=0.25, β=2.1, γ=1.1, δ=8, λ=1.5, D_thr=25 ms).
const (
	DefaultDthr      = 25 * units.Millisecond
	DefaultDelta     = 0.25
	DefaultBeta      = 2.1
	DefaultGamma     = 1.1
	DefaultMaxSleeps = 8
	DefaultLambda    = 1.5
)

// MinimizerConfig tunes Algorithm 3. Zero values select the paper's
// defaults.
type MinimizerConfig struct {
	// Dthr is the delay threshold the rate control aims for.
	Dthr units.Duration
	// Delta is the smoothing exponent Δ in (D_avg/D_thr)^Δ.
	Delta float64
	// Beta caps the target at β·cwnd·mss.
	Beta float64
	// Gamma scales the socket buffer on wireless senders (S_target·γ).
	Gamma float64
	// MaxSleeps is δ, the sleep-count limit per write call.
	MaxSleeps int
	// Lambda is λ: the i-th sleep lasts i^λ milliseconds.
	Lambda float64
	// Wireless enables the setsockopt(SO_SNDBUF) step for LTE/WiFi
	// senders.
	Wireless bool
}

func (c MinimizerConfig) withDefaults() MinimizerConfig {
	if c.Dthr == 0 {
		c.Dthr = DefaultDthr
	}
	if c.Delta == 0 {
		c.Delta = DefaultDelta
	}
	if c.Beta == 0 {
		c.Beta = DefaultBeta
	}
	if c.Gamma == 0 {
		c.Gamma = DefaultGamma
	}
	if c.MaxSleeps == 0 {
		c.MaxSleeps = DefaultMaxSleeps
	}
	if c.Lambda == 0 {
		c.Lambda = DefaultLambda
	}
	return c
}

// Minimizer implements Algorithm 3, ELEMENT's default latency-minimization
// algorithm for legacy TCP applications: keep an EWMA of the send-buffer
// delay, periodically (once per SRTT) rescale the target amount of data
// allowed to sit in the send buffer, and pace the application by sleeping
// after writes while the estimated buffered amount exceeds the target.
//
// As the paper notes, this is an application-layer analogue of FAST TCP's
// equilibrium law: S_target = min(β·cwnd·mss, (D_thr/D_avg)^Δ·S_target).
type Minimizer struct {
	loop    // the checking thread, at the tracker's cadence
	tracker *SenderTracker
	cfg     MinimizerConfig

	tlast units.Time // last per-SRTT update; a restore restarts this clock
	minimizerState

	// Telemetry handles (nil when uninstrumented).
	telem      *telemetry.Scope
	sleepsC    *telemetry.Counter
	sleepSecsC *telemetry.Counter
	updatesC   *telemetry.Counter
	stargetG   *telemetry.Gauge
}

// minimizerState is Algorithm 3's resumable state, declared in the order
// its checkpoint carries it: D_avg, S_target, the safe-mode confidence
// window and the pacing counters. The live Minimizer and
// MinimizerCheckpoint both embed it.
type minimizerState struct {
	Davg    units.Duration `json:"davg"`    // D_avg, EWMA of measured buffer delay
	Starget float64        `json:"starget"` // S_target, bytes

	// Safe mode: when D_measure goes predominantly low-confidence the
	// pacer stops acting on it — throttling a healthy connection because
	// of garbage measurements is worse than not pacing at all. ConfWin is
	// a ring of the last safeWindow sample confidences.
	ConfWin     [safeWindow]Confidence `json:"conf_win"`
	ConfN       int                    `json:"conf_n"`
	ConfIdx     int                    `json:"conf_idx"`
	Safe        bool                   `json:"safe"`
	SafeEntries int                    `json:"safe_entries"`

	// Instrumentation.
	SleepCount  int            `json:"sleeps"`
	SleepTotal  units.Duration `json:"sleep_total"`
	UpdateCount int            `json:"updates"`
}

// Instrument records Algorithm 3's decisions under sc: S_target/D_avg
// samples on every per-SRTT update and pacing-sleep counters.
func (m *Minimizer) Instrument(sc *telemetry.Scope) {
	m.telem = sc
	m.sleepsC = sc.Counter("pacing_sleeps")
	m.sleepSecsC = sc.Counter("pacing_sleep_seconds")
	m.updatesC = sc.Counter("starget_updates")
	m.stargetG = sc.Gauge("starget_bytes")
}

// safeWindow is how many recent D_measure samples the safe-mode vote
// considers; a majority of low-confidence samples in the window trips
// safe mode.
const safeWindow = 16

// NewMinimizer attaches Algorithm 3 to a sender tracker. It subscribes to
// the tracker's delay samples (D_measure) and starts the checking thread.
// All TCP_INFO reads go through the tracker's sanitizer so the pacer sees
// the same defended view as Algorithm 1; src is not read.
func NewMinimizer(eng *sim.Engine, src InfoSource, tracker *SenderTracker, cfg MinimizerConfig) *Minimizer {
	m := NewMinimizerDetached(eng, src, tracker, cfg)
	m.start()
	return m
}

// NewMinimizerDetached attaches Algorithm 3 without starting its checking
// thread; the caller drives every pass through CheckOnce. The fleet
// supervisor uses this so each pass runs under its panic-recovery wrapper.
func NewMinimizerDetached(eng *sim.Engine, src InfoSource, tracker *SenderTracker, cfg MinimizerConfig) *Minimizer {
	m := &Minimizer{loop: loop{eng: eng, interval: tracker.interval}, tracker: tracker, cfg: cfg.withDefaults()}
	m.owner = m
	tracker.subscribe(m.onMeasurement)
	return m
}

// CheckOnce runs a single checking-thread pass immediately (the per-SRTT
// guard still applies). Detached minimizers are driven entirely through it.
func (m *Minimizer) CheckOnce() { m.poll() }

// onMeasurement folds a new buffer-delay measurement into D_avg
// (D_avg ← 7/8·D_avg + 1/8·D_measure) and updates the safe-mode vote.
// Low-confidence samples do not move D_avg — their Delay is explicitly
// disclaimed — but they do count toward tripping safe mode.
func (m *Minimizer) onMeasurement(ms Measurement) {
	m.ConfWin[m.ConfIdx] = ms.Confidence
	m.ConfIdx = (m.ConfIdx + 1) % safeWindow
	if m.ConfN < safeWindow {
		m.ConfN++
	}
	low := 0
	for i := 0; i < m.ConfN; i++ {
		if m.ConfWin[i] == ConfidenceLow {
			low++
		}
	}
	wasSafe := m.Safe
	m.Safe = m.ConfN >= safeWindow/2 && low*2 > m.ConfN
	if m.Safe && !wasSafe {
		m.SafeEntries++
		if m.telem != nil {
			m.telem.Event(telemetry.SevWarn, "pacer_safe_mode",
				telemetry.F("low_samples", float64(low)),
				telemetry.F("window", float64(m.ConfN)))
		}
	}
	if ms.Confidence == ConfidenceLow {
		return
	}
	if m.Davg == 0 {
		m.Davg = ms.Delay
		return
	}
	m.Davg = m.Davg*7/8 + ms.Delay/8
}

// poll is one pass of Algorithm 3's checking thread: the per-SRTT target
// update, when due.
func (m *Minimizer) poll() {
	ti := m.tracker.san.GetsockoptTCPInfo()
	srtt := ti.RTT
	if srtt <= 0 {
		srtt = m.interval
	}
	if m.eng.Now().Sub(m.tlast) <= srtt {
		return
	}
	if m.Davg == 0 {
		return // no measurements yet
	}
	if m.Safe {
		// D_measure is untrustworthy: hold S_target instead of rescaling
		// it on garbage input. The pacing loop is also suspended, so the
		// application sends unpaced until confidence recovers.
		m.tlast = m.eng.Now()
		return
	}
	if m.Starget == 0 {
		// Seed with the send buffer size obtained by getsockopt.
		m.Starget = float64(ti.SndBuf)
	}
	ratio := math.Pow(m.Davg.Seconds()/m.cfg.Dthr.Seconds(), m.cfg.Delta)
	if ratio > 0 {
		m.Starget /= ratio
	}
	if cap := m.cfg.Beta * float64(ti.SndCwnd*ti.SndMSS); m.Starget > cap {
		m.Starget = cap
	}
	// Practical floor: at least one segment may always be buffered,
	// otherwise the pacing loop can deadlock against its own estimate.
	if min := float64(ti.SndMSS); m.Starget < min {
		m.Starget = min
	}
	m.tlast = m.eng.Now()
	m.UpdateCount++
	if m.telem != nil {
		m.updatesC.Inc()
		m.stargetG.Set(m.Starget)
		m.telem.Sample("minimizer",
			telemetry.F("starget_bytes", m.Starget),
			telemetry.F("davg_ms", m.Davg.Milliseconds()))
		m.telem.Event(telemetry.SevDebug, "starget_update",
			telemetry.F("starget_bytes", m.Starget),
			telemetry.F("davg_ms", m.Davg.Milliseconds()),
			telemetry.F("ratio", ratio))
	}
	if m.cfg.Wireless {
		m.tracker.san.SetSndBuf(int(m.Starget * m.cfg.Gamma))
	}
}

// AfterSend is the pacing step run after each application send: sleep (up
// to δ times, the i-th sleep lasting i^λ ms) while the amount estimated to
// sit in the send buffer exceeds S_target. It must run on the writing
// process.
//
// The estimate B_est is recomputed from a fresh TCP_INFO snapshot at every
// loop iteration rather than from the tracker's 10 ms-stale cache: at high
// bandwidth more than a full S_target can drain between tracker polls, and
// pacing against the stale value would starve the TCP layer into
// app-limited bursts (losing throughput, the opposite of the algorithm's
// intent). Algorithm 3's pseudo-code reads the "current estimated sent
// bytes at the TCP layer" at this point.
func (m *Minimizer) AfterSend(p *sim.Proc, cumWritten uint64) {
	if m.Starget == 0 {
		return // not calibrated yet
	}
	if m.Safe {
		return // low-confidence D_measure: do not pace on garbage
	}
	cnt := 0
	for {
		ti := m.tracker.san.GetsockoptTCPInfo()
		best, _ := m.tracker.san.BEst(ti)
		if best > cumWritten {
			best = cumWritten // fallback estimator drift
		}
		if c := m.tracker.BestCache; best < c {
			best = c // never regress below the tracker's clamped view
		}
		buffered := float64(0)
		if cumWritten > best {
			buffered = float64(cumWritten - best)
		}
		if cnt > m.cfg.MaxSleeps || buffered <= m.Starget {
			return
		}
		cnt++
		d := units.DurationFromSeconds(math.Pow(float64(cnt), m.cfg.Lambda) / 1000)
		m.SleepCount++
		m.SleepTotal += d
		if m.telem != nil {
			m.sleepsC.Inc()
			m.sleepSecsC.Add(d.Seconds())
			m.telem.Event(telemetry.SevDebug, "pacing_sleep",
				telemetry.F("seconds", d.Seconds()),
				telemetry.F("buffered_bytes", buffered))
		}
		p.Sleep(d)
	}
}

// Target reports the current S_target in bytes.
func (m *Minimizer) Target() int { return int(m.Starget) }

// AvgDelay reports the current D_avg.
func (m *Minimizer) AvgDelay() units.Duration { return m.Davg }

// Sleeps reports how many pacing sleeps have been taken and their total
// duration.
func (m *Minimizer) Sleeps() (int, units.Duration) { return m.SleepCount, m.SleepTotal }

// Updates reports how many per-SRTT target updates have run.
func (m *Minimizer) Updates() int { return m.UpdateCount }

// SafeMode reports whether the pacer is currently backed off because its
// D_measure input went predominantly low-confidence.
func (m *Minimizer) SafeMode() bool { return m.Safe }

// SafeModeEntries reports how many times the pacer tripped into safe
// mode.
func (m *Minimizer) SafeModeEntries() int { return m.SafeEntries }
