package core

import (
	"element/internal/sim"
	"element/internal/telemetry"
	"element/internal/units"
)

// Confidence-grading parameters shared by both trackers. The grading is
// deliberately coarse: bounds must be honest (widen under degraded input)
// without pretending to more precision than a 10 ms poll grants.
const (
	// staleLowPolls is the stall length (in polls) past which a sample is
	// flagged low-confidence outright rather than merely wide-bounded.
	staleLowPolls = 8
	// anomalyHoldoffPolls is how many polls after an input anomaly
	// (backwards counter, MSS change, capability flip) samples stay
	// downgraded while the estimator re-bases.
	anomalyHoldoffPolls = 3
	// mssLowWindowPolls is the receiver-side penalty window after an MSS
	// change: B_est = segs_in·rcv_mss re-bases the whole cumulative count,
	// so samples are untrustworthy for a while, not just one poll.
	mssLowWindowPolls = 50
	// fallbackBoundPolls widens the error bound (in poll intervals) while
	// the degraded segment-counter estimator is in use.
	fallbackBoundPolls = 4
)

// SenderTracker implements Algorithm 1: user-level estimation of the delay
// between the application's socket write and the TCP layer's transmission,
// using only TCP_INFO statistics.
type SenderTracker struct {
	tracker                     // records are (cumulative written bytes, write time)
	onDelay func(m Measurement) // minimizer subscription
	senderState
	fifoS *telemetry.Sampler
}

// senderState is everything Algorithm 1 carries from one poll to the
// next besides its records, declared in the order its checkpoint carries
// it: the live tracker and SenderCheckpoint both embed it, so a field
// added here is checkpointed and restored without further code.
type senderState struct {
	CumWritten uint64 `json:"cum_written"` // latest OnWrite cumulative count (fallback clamp)
	BestCache  uint64 `json:"best_cache"`  // latest B_est, exposed for Algorithm 3
	LastBest   uint64 `json:"last_best"`   // byte-weight cursor: bytes already matched
	PrevBest   uint64 `json:"prev_best"`   // B_est at the previous poll (stall detection)

	PollCount  int            `json:"polls"`
	StalePolls int            `json:"stale_polls"` // consecutive polls without B_est progress
	StallCum   units.Duration `json:"stall_cum"`   // total stalled time ever (per-record stall debt)
	RateEst    float64        `json:"rate_est"`    // EWMA of B_est progress, bytes/s (MSS-spread bound)
	grading
}

// grading is the sample-grading state both trackers' states end with, in
// the order both checkpoints carry it: the post-anomaly holdoff stamp and
// the previous sample's delay, which the next sample's jitter slack is
// measured from.
type grading struct {
	LastAnomaly  int            `json:"last_anomaly"`  // poll index of the last input anomaly
	PrevAnomTot  int            `json:"prev_anom_tot"` // anomaly total at that poll
	PrevDelay    units.Duration `json:"prev_delay"`
	PrevDelaySet bool           `json:"prev_delay_set"`
}

// stamp opens the post-anomaly holdoff at poll polls: samples stay
// downgraded for anomalyHoldoffPolls polls while the estimator re-bases.
func (g *grading) stamp(polls int, san *sanitizer) {
	g.LastAnomaly = polls
	g.PrevAnomTot = san.Counts.Total()
}

// noteAnomalies stamps the holdoff when the sanitizer counted an anomaly
// since the last stamp.
func (g *grading) noteAnomalies(polls int, san *sanitizer) {
	if san.Counts.Total() != g.PrevAnomTot {
		g.stamp(polls, san)
	}
}

// recentAnomaly reports whether poll polls falls inside the holdoff.
func (g *grading) recentAnomaly(polls int) bool {
	return g.LastAnomaly > 0 && polls-g.LastAnomaly <= anomalyHoldoffPolls
}

// jitter is the per-sample slack: how far delay d moved from the previous
// sample's. The local delay variation bounds the interpolation error
// against a continuously-sampled ground truth. Measurement's log codec
// predicts this term of ErrBound (codecJitter).
func (g *grading) jitter(d units.Duration) units.Duration {
	slack := units.Duration(0)
	if g.PrevDelaySet {
		slack = d - g.PrevDelay
		if slack < 0 {
			slack = -slack
		}
	}
	g.PrevDelay, g.PrevDelaySet = d, true
	return slack
}

// fold is the one restore rule, shared by both trackers and by every
// path that loses sight of a flow (a restore outage, a shed guard, a
// park): the unobserved window d, clamped at zero, is stalled time every
// outstanding record sat through. Records snapshot the stall total at
// push, so bumping it widens exactly the samples produced from state that
// sat through the window. The post-anomaly holdoff then opens at the
// current poll; a caller auditing the window as an anomaly (Restores,
// Sheds) counts it first, so the stamp includes it. fold returns the
// clamped window.
func (g *grading) fold(d units.Duration, stallCum *units.Duration, polls int, san *sanitizer) units.Duration {
	d = max(d, 0)
	*stallCum += d
	g.stamp(polls, san)
	return d
}

// Instrument records the tracker's activity under sc: a histogram and time
// series of the matched send-buffer delays (the paper's Algorithm 1
// output), FIFO-depth samples per poll, and the anomaly counters of the
// TCP_INFO sanitizer.
func (t *SenderTracker) Instrument(sc *telemetry.Scope) {
	t.instrument(sc, "snd")
	t.fifoS = sc.Sampler("snd_fifo", telemetry.DefaultSampleGap, "depth")
}

// NewSenderTrackerOpts starts Algorithm 1's tcp_info tracking thread on
// eng.
func NewSenderTrackerOpts(eng *sim.Engine, src InfoSource, opts TrackerOptions) *SenderTracker {
	t := &SenderTracker{}
	t.init(eng, src, opts, t)
	return t
}

// OnWrite is the data-sending-thread half of Algorithm 1: the application
// wrapper calls it after every socket write with the cumulative number of
// bytes written (seq).
func (t *SenderTracker) OnWrite(cumBytes uint64) {
	if cumBytes > t.CumWritten {
		t.CumWritten = cumBytes
	}
	// stall carries the stalled-time total at push; the difference against
	// the total at match time is exactly how long this record sat behind a
	// non-advancing estimate — uncertainty its error bound must admit.
	if ev, evicted := t.list.push(record{bytes: cumBytes, at: t.eng.Now(), stall: t.StallCum}); evicted {
		// Bounded memory beat drain: the evicted write will never produce a
		// sample. Advance the byte-weight cursor past it so the next match
		// is not over-weighted with the evicted bytes, and degrade upcoming
		// samples like any other input anomaly.
		if ev.bytes > t.LastBest {
			t.LastBest = ev.bytes
		}
		t.san.Counts.Evictions++
		t.stamp(t.PollCount, t.san)
	}
}

// poll is one iteration of the tcp_info tracking thread: estimate the bytes
// that have left the TCP layer and emit a delay sample for every write
// record at or below the estimate. Each sample carries a confidence grade
// and an error bound derived from how degraded the TCP_INFO input looked.
func (t *SenderTracker) poll() {
	t.PollCount++
	t.pollsC.Inc()
	ti := t.san.GetsockoptTCPInfo()
	best, fallback := t.san.BEst(ti)
	overrun := false
	if fallback && best > t.CumWritten {
		// The segment-counter estimate drifted past the bytes the app ever
		// wrote: provably wrong, clamp and flag.
		best = t.CumWritten
		t.san.Counts.Overruns++
		overrun = true
	}
	if best < t.BestCache {
		// B_est must not regress: a backwards step would un-send bytes the
		// matcher already accounted for and corrupt Algorithm 3's buffered
		// estimate.
		best = t.BestCache
		t.san.Counts.BestRegressions++
	}
	t.BestCache = best

	// Stall detection: no estimator progress while writes wait. Stalled
	// time accrues into StallCum; each record remembers the total at push,
	// so a record matched long after a stall — the backlog drains over many
	// polls as acknowledgements trickle in — still carries the full stalled
	// time it sat through in its error bound, not just the stall length at
	// the poll that happened to pop it.
	if best > t.PrevBest {
		if t.interval > 0 {
			inst := float64(best-t.PrevBest) / t.interval.Seconds()
			if t.RateEst > 0 && inst > 2*t.RateEst {
				// Catch-up burst: after a frozen stretch the estimate drains
				// its backlog at far above the steady rate. Records popped
				// during the drain are still late by however much backlog
				// remains ahead of them, so the stall debt keeps accruing
				// until the estimate is back in step.
				t.StallCum += t.interval
			}
			if t.RateEst == 0 {
				t.RateEst = inst
			} else {
				t.RateEst = (7*t.RateEst + inst) / 8
			}
		}
		t.StalePolls = 0
	} else if !t.list.empty() {
		t.StalePolls++
		t.StallCum += t.interval
		t.san.Counts.StalledPolls++
		t.san.stallsC.Inc()
	}
	t.PrevBest = best
	t.noteAnomalies(t.PollCount, t.san)

	// MSS-spread widening: the true MSS lies within the observed envelope,
	// so the Unacked·MSS term of B_est is off by at most Unacked·spread
	// bytes — converted to time through the estimator's own drain rate
	// (doubled: the rate estimate is built from the same degraded input).
	// Under the fallback estimator the sensitivity is the whole segment
	// count, far beyond repair — those samples are flagged instead.
	var mssTerm units.Duration
	mssLow := false
	if spread := t.san.sndMSSSpread(); spread > 0 {
		if fallback || t.RateEst <= 0 {
			mssLow = true
		} else {
			mssTerm = units.DurationFromSeconds(2 * float64(ti.Unacked*spread) / t.RateEst)
		}
	}

	now := t.eng.Now()
	// One binary search finds the whole matched prefix (records carry
	// cumulative counts, so the ring is sorted); the loop then pops exactly
	// those records without re-comparing each one.
	for n := t.list.searchAbove(best); n > 0; n-- {
		r := t.list.pop()
		d := now.Sub(r.at)
		rstall := t.StallCum - r.stall
		conf, bound := t.grade(fallback, overrun, mssLow, rstall, mssTerm)
		m := Measurement{
			At: now, Delay: d, Bytes: int(r.bytes - t.LastBest),
			Cwnd: int32(ti.SndCwnd), Ssthresh: int32(ti.SndSsthresh), RTT: ti.RTT,
			Confidence: conf, ErrBound: bound + t.jitter(d),
		}
		t.emit(m)
		t.LastBest = r.bytes
		if t.onDelay != nil {
			t.onDelay(m)
		}
	}
	if t.fifoS != nil {
		t.fifoS.SampleValsAt(now, float64(t.list.len()))
	}
}

// grade turns the input-health observations into a confidence grade and a
// base error bound for one sample. The base bound is two polling
// intervals (match quantization on both ends) widened by every
// acknowledged source of degradation — wide-and-honest rather than
// tight-and-wrong. rstall is the stalled time the matched record sat
// through; mssTerm the MSS-envelope widening.
func (t *SenderTracker) grade(fallback, overrun, mssLow bool, rstall, mssTerm units.Duration) (Confidence, units.Duration) {
	bound := 2*t.interval + rstall + mssTerm
	if fallback {
		bound += fallbackBoundPolls * t.interval
	}
	recentAnomaly := t.recentAnomaly(t.PollCount)
	switch {
	case overrun, mssLow,
		t.StalePolls >= staleLowPolls,
		recentAnomaly && t.san.Counts.Backwards+t.san.Counts.BestRegressions+t.san.Counts.MSSChanges > 0 && t.PollCount == t.LastAnomaly:
		return ConfidenceLow, bound
	case fallback, rstall > 0, mssTerm > 0, t.StalePolls > 0, recentAnomaly:
		return ConfidenceMedium, bound
	}
	return ConfidenceHigh, bound
}

// EstimatedTCPBytes reports the latest B_est (Algorithm 3 reads it after
// each send).
func (t *SenderTracker) EstimatedTCPBytes() uint64 { return t.BestCache }

// Polls reports how many TCP_INFO polls have run (overhead accounting).
func (t *SenderTracker) Polls() int { return t.PollCount }

// DegradedMode reports whether the tracker is running on the fallback
// (segment-counter) estimator because tcpi_bytes_acked is unavailable.
func (t *SenderTracker) DegradedMode() bool { return t.san.bytesAckedAbsent() }

// fold is the shared restore rule (grading.fold) plus the sender's one
// extra line: the window also counts as stale polls, so a long outage
// flags samples low-confidence until B_est provably advances again.
func (t *SenderTracker) fold(d units.Duration) {
	d = t.grading.fold(d, &t.StallCum, t.PollCount, t.san)
	t.StalePolls += int(d / t.interval)
}

// subscribe registers the minimizer's measurement callback.
func (t *SenderTracker) subscribe(fn func(Measurement)) { t.onDelay = fn }

// ReceiverTracker implements Algorithm 2: user-level estimation of the
// delay between TCP receiving data and the application reading it.
type ReceiverTracker struct {
	tracker // records are (estimated received bytes at TCP, time)
	receiverState
}

// receiverState is everything Algorithm 2 carries from one poll to the
// next besides its records, declared in the order its checkpoint carries
// it (see senderState).
type receiverState struct {
	Prev        uint64     `json:"prev"` // B_prev
	PollCount   int        `json:"polls"`
	LastGrowth  units.Time `json:"last_growth"` // when B_est last advanced (record slack)
	LastRcvMSS  int        `json:"last_rcv_mss"`
	MSSLowUntil int        `json:"mss_low_until"` // poll index until which samples stay low-confidence
	// segs_in inflation audit: the drain excess (B_est beyond the in-order
	// bytes delivered) is the ceiling on how much any sample may overstate
	// waiting, folded into every error bound. ExcEpoch holds the largest
	// excess seen this poll epoch and the previous one — the first drain
	// after a poll is the least stale measurement of the excess, so the
	// epoch maximum tracks inflation without being dragged down by later
	// reads in the same epoch. ExcBound is the sticky value served to
	// grade between drains. The windowed floor of the excess separates
	// persistent inflation (duplicate segments) from transient reassembly
	// backlog for the Resyncs anomaly counter.
	ExcEpoch    [2]uint64      `json:"exc_epoch"`
	ExcBound    uint64         `json:"exc_bound"`
	StallCum    units.Duration `json:"stall_cum"` // arrival-stall time accrued while records wait
	OffWinMin   [2]uint64      `json:"off_win_min"`
	OffWinStart int            `json:"off_win_start"` // poll index where the current floor bucket opened
	PrevFloor   uint64         `json:"prev_floor"`    // last inflation floor that incremented Resyncs
	RateEst     float64        `json:"rate_est"`      // EWMA of B_est growth, bytes/s (excess → time)
	grading
}

// Instrument records the tracker's matched receive-side delays under sc.
func (t *ReceiverTracker) Instrument(sc *telemetry.Scope) { t.instrument(sc, "rcv") }

// NewReceiverTracker starts Algorithm 2's tcp_info tracking thread.
// offsetWindowPolls is the sliding window (in polls) over which the
// receiver takes the minimum drain excess as its inflation estimate. Long
// enough that a reassembly episode (real waiting) does not read as
// inflation; short enough that genuine duplicate-segment inflation is
// absorbed within a couple of seconds.
const offsetWindowPolls = 100

// offUnset marks an offset-window bucket that saw no drains yet.
const offUnset = ^uint64(0)

// NewReceiverTrackerOpts starts Algorithm 2's tcp_info tracking thread on
// eng.
func NewReceiverTrackerOpts(eng *sim.Engine, src InfoSource, opts TrackerOptions) *ReceiverTracker {
	t := &ReceiverTracker{}
	t.LastGrowth = eng.Now()
	t.OffWinMin = [2]uint64{offUnset, offUnset}
	t.init(eng, src, opts, t)
	return t
}

// poll is one iteration of the tcp_info tracking thread: record the
// estimated bytes received at the TCP layer whenever the estimate grows.
// Each record carries the sampling slack accumulated since the previous
// growth — under stalled or rate-limited TCP_INFO the record's timestamp
// can lag the true arrival by that much, and the error bounds of the
// samples it produces say so.
func (t *ReceiverTracker) poll() {
	t.PollCount++
	t.pollsC.Inc()
	if t.PollCount-t.OffWinStart >= offsetWindowPolls {
		t.OffWinMin[1] = t.OffWinMin[0]
		t.OffWinMin[0] = offUnset
		t.OffWinStart = t.PollCount
	}
	t.ExcEpoch[1] = t.ExcEpoch[0]
	t.ExcEpoch[0] = 0
	ti := t.san.GetsockoptTCPInfo()
	if ti.RcvMSS != t.LastRcvMSS {
		if t.LastRcvMSS != 0 {
			// segs_in × rcv_mss re-bases the entire cumulative estimate on
			// an MSS change; distrust samples for a long window.
			t.MSSLowUntil = t.PollCount + mssLowWindowPolls
		}
		t.LastRcvMSS = ti.RcvMSS
	}
	t.noteAnomalies(t.PollCount, t.san)
	// B_est = tcpi_segs_in * tcpi_rcv_mss.
	best := uint64(ti.SegsIn) * uint64(ti.RcvMSS)
	if best > t.Prev {
		now := t.eng.Now()
		slack := now.Sub(t.LastGrowth) - t.interval
		if slack < 0 {
			slack = 0
		}
		// Arrival-rate EWMA: converts the byte-denominated drain excess into
		// a time-denominated bound term in grade.
		if el := now.Sub(t.LastGrowth).Seconds(); el > 0 {
			inst := float64(best-t.Prev) / el
			if t.RateEst == 0 {
				t.RateEst = inst
			} else {
				t.RateEst = (7*t.RateEst + inst) / 8
			}
		}
		t.Prev = best
		t.LastGrowth = now
		if _, evicted := t.list.push(record{bytes: best, at: now, slack: slack, stall: t.StallCum}); evicted {
			// The application stopped reading long enough for the record
			// list to hit its cap: the evicted arrival's eventual read will
			// match a younger record (underestimating its wait), so flag
			// the episode as an anomaly.
			t.san.Counts.Evictions++
			t.stamp(t.PollCount, t.san)
		}
	} else if !t.list.empty() {
		// Arrivals stalled while claimed bytes wait unmatched. If the front
		// record is inflation (duplicate segments), its eventual sample
		// accrues phantom waiting at wall-clock speed for the whole stall —
		// a blackout, say — far beyond what the excess-over-rate term can
		// express. The stall debt the record sat through covers it.
		t.StallCum += t.interval
	}
}

// OnRead is the data-receiving-thread half of Algorithm 2: the wrapper
// calls it after every socket read with the cumulative bytes read (seq).
// Records below seq are discarded; the first record at or above seq (the
// one covering the just-read byte) yields the delay sample.
//
// drained reports that the read emptied the in-order receive queue (the
// socket returned less than asked). At that instant the bytes TCP has
// truly delivered in order equal seq, so any excess of B_est over it is
// tcpi_segs_in inflation — duplicate segments from spurious
// retransmissions — plus unread reassembly bytes not yet readable. Either
// way the excess is exactly how far ahead of reality the estimate may
// run, i.e. how much any sample may overstate waiting; it is folded into
// the error bound rather than subtracted from the matching, so a degraded
// counter widens bounds instead of silently reshaping the series.
func (t *ReceiverTracker) OnRead(cumBytes uint64, readBytes int, drained bool) {
	now := t.eng.Now()
	if cumBytes > t.Prev && t.Prev > 0 {
		// The application read bytes B_est claims TCP never received: the
		// estimator is provably behind (GRO/LRO-style coalescing under-
		// counting segs_in). Flag rather than silently underestimate.
		t.san.Counts.Lags++
		t.stamp(t.PollCount, t.san)
	}
	if drained {
		var exc uint64
		if t.Prev > cumBytes {
			exc = t.Prev - cumBytes
		}
		if exc > t.ExcEpoch[0] {
			t.ExcEpoch[0] = exc
		}
		// Refresh the bound excess BEFORE matching: the first read after a
		// burst of duplicate arrivals must already carry their inflation in
		// its bound, not discover it one read too late.
		b := t.ExcEpoch[0]
		if t.ExcEpoch[1] > b {
			b = t.ExcEpoch[1]
		}
		t.ExcBound = b
		// The sliding-window minimum of the drain excess separates persistent
		// duplicate-segment inflation from transient reassembly backlog:
		// whenever the reassembly queue empties within the window, the
		// minimum collapses to pure inflation. It feeds the Resyncs audit
		// counter, not the matching.
		if exc < t.OffWinMin[0] {
			t.OffWinMin[0] = exc
		}
		floor := t.OffWinMin[0]
		if t.OffWinMin[1] < floor {
			floor = t.OffWinMin[1]
		}
		if floor != offUnset {
			mss := uint64(t.LastRcvMSS)
			if mss == 0 {
				mss = 1448
			}
			if floor > t.PrevFloor && floor-t.PrevFloor >= mss {
				// Persistent inflation grew by at least a full segment since
				// the last audit mark: duplicate arrivals, worth flagging.
				t.san.Counts.Resyncs++
				t.stamp(t.PollCount, t.san)
				t.PrevFloor = floor
			}
		}
	}
	// Records at or below seq were read before this call reached us: one
	// binary search locates the boundary and the whole prefix is discarded
	// with a single head advance — the common case for a reader that fell
	// behind is thousands of records dropped in O(log n).
	if n := t.list.searchAbove(cumBytes); n > 0 {
		t.list.discard(n)
	}
	if !t.list.empty() {
		r := t.list.front()
		ti := t.san.GetsockoptTCPInfo()
		d := now.Sub(r.at)
		conf, bound := t.grade(cumBytes, r.slack, t.StallCum-r.stall)
		m := Measurement{
			At: now, Delay: d, Bytes: readBytes,
			Cwnd: int32(ti.SndCwnd), Ssthresh: int32(ti.SndSsthresh), RTT: ti.RTT,
			Confidence: conf, ErrBound: bound + t.jitter(d),
		}
		t.emit(m)
	}
}

// grade computes the confidence and base error bound of one receiver
// sample. Base bound: three polling intervals — record-timestamp
// quantization at push plus match quantization at read — widened by the
// record's sampling slack, by the stalled time the matched record sat
// through, and by the latest drain excess converted to time through the
// arrival rate (the estimate may run that far ahead of the bytes
// actually delivered, so the sample may overstate waiting by up to that
// much).
func (t *ReceiverTracker) grade(cumBytes uint64, recSlack, rstall units.Duration) (Confidence, units.Duration) {
	bound := 3*t.interval + recSlack + rstall
	inflLow := false
	if t.ExcBound > 0 {
		if t.RateEst > 0 {
			// Doubled: the rate EWMA is built from the same degraded counter
			// and runs hot when duplicate bursts inflate it, which would
			// shrink the term exactly when it matters. One extra interval on
			// top: the excess is measured against a B_est snapshot up to a
			// poll old, so arrivals read in the gap hide that much inflation.
			bound += t.interval +
				units.DurationFromSeconds(2*float64(t.ExcBound)/t.RateEst)
		} else {
			// Excess with no rate to convert it: unquantifiable.
			inflLow = true
		}
	}
	mss := uint64(t.LastRcvMSS)
	if mss == 0 {
		mss = 1448
	}
	recentAnomaly := t.recentAnomaly(t.PollCount)
	switch {
	case cumBytes > t.Prev && t.Prev > 0, // estimator provably behind the app
		t.PollCount < t.MSSLowUntil,
		inflLow,
		recSlack >= units.Duration(staleLowPolls)*t.interval:
		return ConfidenceLow, bound
	case recentAnomaly, recSlack > 0, rstall > 0, t.ExcBound >= 4*mss:
		return ConfidenceMedium, bound
	}
	return ConfidenceHigh, bound
}

// Polls reports how many TCP_INFO polls have run.
func (t *ReceiverTracker) Polls() int { return t.PollCount }

// fold is the shared restore rule (grading.fold); the receiver adds
// nothing to it.
func (t *ReceiverTracker) fold(d units.Duration) {
	t.grading.fold(d, &t.StallCum, t.PollCount, t.san)
}
