package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"element/internal/sim"
	"element/internal/tcpinfo"
	"element/internal/units"
)

// This file implements crash-safe checkpoint/restore for the ELEMENT
// estimators. A monitor that dies mid-series must not restart the series
// from zero (silently forgetting every unmatched record) nor resume it
// pretending nothing happened (reporting tight bounds over a window it
// never observed). A checkpoint serializes everything a tracker needs to
// keep matching — the cumulative byte records, B_est clamps, stall debt,
// rate EWMAs and the anomaly audit trail — and a restore folds the outage
// window (restore time minus checkpoint time) into the stall/slack debt
// machinery, so every sample produced from state that sat through the
// outage carries the outage in its error bound and a degraded confidence
// grade. That upholds the bounded-or-flagged contract across restarts.
//
// Two invariants hold it together. A checkpoint is its object's state:
// each of the four objects (both trackers, the minimizer, the sanitizer)
// declares its resumable fields once, in a state struct that the live
// type and its checkpoint both embed, in wire order — so a tracker's
// Checkpoint is the shell's header (options and records) plus one struct
// copy, a restore is one assignment plus the shell's restore, and a field
// cannot be added to one side only. And there is one restore rule: the
// trackers' fold, which Shed and FoldOutage share.
// A checkpoint is a plain value, so a supervisor holds it as is
// (CheckpointInto refills one in place) and encodes it only where it
// leaves the process: Marshal/Unmarshal use encoding/json, which has no
// NaN or ±Inf, so Encodable tells a holder beforehand which checkpoints
// would not survive that trip.

// RecordCheckpoint is one serialized FIFO record.
type RecordCheckpoint struct {
	Bytes uint64         `json:"bytes"`
	At    units.Time     `json:"at"`
	Slack units.Duration `json:"slack,omitempty"`
	Stall units.Duration `json:"stall,omitempty"`
}

// checkpointHeader opens both tracker checkpoints: when it was taken, the
// construction options and the outstanding records, oldest first. An
// uncapped tracker's RecordCap is 0.
type checkpointHeader struct {
	TakenAt   units.Time         `json:"taken_at"`
	Interval  units.Duration     `json:"interval"`
	RecordCap int                `json:"record_cap,omitempty"`
	Records   []RecordCheckpoint `json:"records,omitempty"`
}

// header returns the tracker's checkpoint header, appending the records
// to recs' storage.
func (t *tracker) header(recs []RecordCheckpoint) checkpointHeader {
	return checkpointHeader{
		TakenAt:   t.eng.Now(),
		Interval:  t.interval,
		RecordCap: t.list.cap,
		Records:   appendRecords(recs[:0], &t.list),
	}
}

// options fills the options a restore leaves zero from the header's own:
// a checkpointed cap of 0 restores uncapped.
func (h *checkpointHeader) options(opts TrackerOptions) TrackerOptions {
	if opts.Interval <= 0 {
		opts.Interval = h.Interval
	}
	if opts.RecordCap == 0 {
		opts.RecordCap = h.RecordCap
		if opts.RecordCap == 0 {
			opts.RecordCap = -1
		}
	}
	return opts
}

// restore finishes a restore once the side has assigned its state (whose
// stall total is stallCum): the sanitizer's state and the records come
// back, and the outage since h was taken counts a Restores anomaly and
// goes through the side's restore rule.
func (t *tracker) restore(h *checkpointHeader, san sanitizerState, stallCum *units.Duration) {
	t.san.sanitizerState = san
	*stallCum = max(*stallCum, 0) // negative debt would narrow bounds
	restoreRecords(&t.list, h.Records, t.eng.Now(), *stallCum)
	t.san.Counts.Restores++
	t.owner.(side).fold(t.eng.Now().Sub(h.TakenAt))
}

// unmarshal decodes a checkpoint produced by Marshal; what names it in
// the error.
func unmarshal[C any](b []byte, what string) (C, error) {
	var cp C
	if err := json.Unmarshal(b, &cp); err != nil {
		var zero C
		return zero, fmt.Errorf("core: decoding %s checkpoint: %w", what, err)
	}
	return cp, nil
}

// SenderCheckpoint is the serializable state of Algorithm 1's tracker: the
// header, the tracker's state and its sanitizer's, in that order on the
// wire.
type SenderCheckpoint struct {
	checkpointHeader
	senderState
	Sanitizer sanitizerState `json:"sanitizer"`
}

// Checkpoint returns the tracker's resumable state at the current
// instant. It does not include the measurement log: the supervisor is
// expected to have flushed (or to accept losing) already-produced samples;
// what the checkpoint preserves is the ability to keep producing correct
// ones.
func (t *SenderTracker) Checkpoint() SenderCheckpoint {
	var cp SenderCheckpoint
	t.CheckpointInto(&cp)
	return cp
}

// CheckpointInto is Checkpoint refilling cp in place: cp.Records' storage
// is reused, so a holder that checkpoints periodically allocates only
// when the ring outgrows every earlier checkpoint.
func (t *SenderTracker) CheckpointInto(cp *SenderCheckpoint) {
	*cp = SenderCheckpoint{
		checkpointHeader: t.header(cp.Records),
		senderState:      t.senderState,
		Sanitizer:        t.san.sanitizerState,
	}
}

// Encodable reports whether the tracker's checkpoint encodes: JSON has no
// NaN or ±Inf, so Marshal fails exactly when a float in the state is not
// finite.
func (t *SenderTracker) Encodable() bool {
	return finite(t.RateEst) && t.san.encodable()
}

// Marshal encodes the checkpoint as JSON.
func (cp SenderCheckpoint) Marshal() ([]byte, error) { return json.Marshal(cp) }

// UnmarshalSenderCheckpoint decodes a checkpoint produced by Marshal.
func UnmarshalSenderCheckpoint(b []byte) (SenderCheckpoint, error) {
	return unmarshal[SenderCheckpoint](b, "sender")
}

// RestoreSenderTracker resumes Algorithm 1 from a checkpoint: the state is
// assigned whole, then the restore rule (fold) charges the outage window —
// the gap between the checkpoint's timestamp and the engine's current
// time — as stall debt and stale polls, counts a Restores anomaly and
// opens the post-anomaly holdoff. Every record that sat through the
// outage produces a sample whose error bound admits the whole unobserved
// window, at degraded confidence; an outage longer than the stale-poll
// threshold flags samples outright until the estimator observes fresh
// progress. opts.Interval and opts.RecordCap default to the checkpoint's
// values when zero; opts.Detached works as in NewSenderTrackerOpts.
func RestoreSenderTracker(eng *sim.Engine, src InfoSource, cp SenderCheckpoint, opts TrackerOptions) *SenderTracker {
	t := NewSenderTrackerOpts(eng, src, cp.options(opts))
	t.senderState = cp.senderState
	t.restore(&cp.checkpointHeader, cp.Sanitizer, &t.StallCum)
	return t
}

// Rebase strips the state that only meant something for the connection
// the checkpoint was taken on, preparing it for restore into a NEW
// connection (the fleet-level snapshot/resume path, where a whole run's
// estimator state re-homes onto freshly built connections). Byte-matching
// state — outstanding records, the B_est clamps, the write cursor — is
// relative to the old flow's cumulative counters and would corrupt the
// ring's sorted invariant against a flow restarting at byte zero, so it
// is dropped; likewise the sanitizer's last-snapshot clamps, which would
// read every counter of the new flow as a backwards jump. What carries
// over is exactly the audit: anomaly counts, the capability verdict, the
// MSS envelope, the stall/rate state, and the poll clock. Restoring a
// rebased checkpoint still counts the Restores anomaly and opens the
// post-anomaly holdoff, so the resumed series starts at degraded
// confidence instead of pretending continuity it cannot prove.
func (cp SenderCheckpoint) Rebase() SenderCheckpoint {
	cp.TakenAt = 0
	cp.Records = nil
	cp.CumWritten, cp.BestCache, cp.LastBest, cp.PrevBest = 0, 0, 0, 0
	cp.PrevDelay, cp.PrevDelaySet = 0, false
	cp.Sanitizer.Seen = false
	cp.Sanitizer.Last = tcpinfo.TCPInfo{}
	return cp
}

// ReceiverCheckpoint is the serializable state of Algorithm 2's tracker,
// laid out like SenderCheckpoint.
type ReceiverCheckpoint struct {
	checkpointHeader
	receiverState
	Sanitizer sanitizerState `json:"sanitizer"`
}

// Checkpoint returns the tracker's resumable state at the current
// instant.
func (t *ReceiverTracker) Checkpoint() ReceiverCheckpoint {
	var cp ReceiverCheckpoint
	t.CheckpointInto(&cp)
	return cp
}

// CheckpointInto is Checkpoint refilling cp in place, reusing
// cp.Records' storage (see SenderTracker.CheckpointInto).
func (t *ReceiverTracker) CheckpointInto(cp *ReceiverCheckpoint) {
	*cp = ReceiverCheckpoint{
		checkpointHeader: t.header(cp.Records),
		receiverState:    t.receiverState,
		Sanitizer:        t.san.sanitizerState,
	}
}

// Encodable reports whether the tracker's checkpoint encodes (see
// SenderTracker.Encodable).
func (t *ReceiverTracker) Encodable() bool {
	return finite(t.RateEst) && t.san.encodable()
}

// Marshal encodes the checkpoint as JSON.
func (cp ReceiverCheckpoint) Marshal() ([]byte, error) { return json.Marshal(cp) }

// UnmarshalReceiverCheckpoint decodes a checkpoint produced by Marshal.
func UnmarshalReceiverCheckpoint(b []byte) (ReceiverCheckpoint, error) {
	return unmarshal[ReceiverCheckpoint](b, "receiver")
}

// RestoreReceiverTracker resumes Algorithm 2 from a checkpoint under the
// same restore rule as RestoreSenderTracker: the outage window is folded
// into the stall debt of every outstanding record (samples they produce
// admit the whole unobserved window). The restored LastGrowth timestamp
// predates the outage, so the first post-restore record additionally
// inherits the outage as sampling slack — arrivals during the outage were
// observed up to that late.
func RestoreReceiverTracker(eng *sim.Engine, src InfoSource, cp ReceiverCheckpoint, opts TrackerOptions) *ReceiverTracker {
	t := NewReceiverTrackerOpts(eng, src, cp.options(opts))
	t.receiverState = cp.receiverState
	t.restore(&cp.checkpointHeader, cp.Sanitizer, &t.StallCum)
	return t
}

// Rebase strips a receiver checkpoint's connection-relative state for
// restore into a new connection (see SenderCheckpoint.Rebase): records,
// the cumulative B_prev estimate, the drain-excess machinery keyed to old
// byte counts, and the sanitizer clamps reset; the audit trail, rate
// EWMA and poll clock carry over.
func (cp ReceiverCheckpoint) Rebase() ReceiverCheckpoint {
	cp.TakenAt = 0
	cp.Records = nil
	cp.Prev = 0
	cp.LastGrowth = 0
	cp.ExcEpoch = [2]uint64{}
	cp.ExcBound = 0
	cp.OffWinMin = [2]uint64{offUnset, offUnset}
	cp.OffWinStart = cp.PollCount
	cp.PrevFloor = 0
	cp.PrevDelay, cp.PrevDelaySet = 0, false
	cp.Sanitizer.Seen = false
	cp.Sanitizer.Last = tcpinfo.TCPInfo{}
	return cp
}

// MinimizerCheckpoint is the serializable state of Algorithm 3: its
// configuration, then its state.
type MinimizerCheckpoint struct {
	TakenAt units.Time      `json:"taken_at"`
	Config  MinimizerConfig `json:"config"`
	minimizerState
}

// Checkpoint returns Algorithm 3's resumable state. It holds no slice, so
// assigning it over an earlier one allocates nothing.
func (m *Minimizer) Checkpoint() MinimizerCheckpoint {
	return MinimizerCheckpoint{TakenAt: m.eng.Now(), Config: m.cfg, minimizerState: m.minimizerState}
}

// Encodable reports whether the minimizer's checkpoint encodes (see
// SenderTracker.Encodable).
func (m *Minimizer) Encodable() bool {
	c := m.cfg
	return finite(m.Starget) && finite(c.Delta) && finite(c.Beta) && finite(c.Gamma) && finite(c.Lambda)
}

// Marshal encodes the checkpoint as JSON.
func (cp MinimizerCheckpoint) Marshal() ([]byte, error) { return json.Marshal(cp) }

// UnmarshalMinimizerCheckpoint decodes a checkpoint produced by Marshal.
func UnmarshalMinimizerCheckpoint(b []byte) (MinimizerCheckpoint, error) {
	return unmarshal[MinimizerCheckpoint](b, "minimizer")
}

// RestoreMinimizer resumes Algorithm 3 on a (restored) tracker. D_avg and
// S_target carry over — the connection's equilibrium does not reset just
// because the monitor did — but the per-SRTT update clock restarts at the
// current instant, so the first rescale happens a full SRTT after restore
// rather than immediately on stale state. The restored minimizer is
// detached, as from NewMinimizerDetached.
func RestoreMinimizer(eng *sim.Engine, tracker *SenderTracker, cp MinimizerCheckpoint) *Minimizer {
	m := NewMinimizerDetached(eng, tracker.san, tracker, cp.Config)
	m.minimizerState = cp.minimizerState
	// A corrupted checkpoint must not index outside the confidence window:
	// the cursor and fill count are clamped into the window's range.
	m.ConfN = min(max(m.ConfN, 0), safeWindow)
	if m.ConfIdx < 0 || m.ConfIdx >= safeWindow {
		m.ConfIdx = 0
	}
	m.tlast = eng.Now()
	return m
}

// appendRecords appends a fifo's live records to dst oldest-first.
func appendRecords(dst []RecordCheckpoint, f *fifo) []RecordCheckpoint {
	n := f.len()
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		r := f.at(i)
		dst = append(dst, RecordCheckpoint{Bytes: r.bytes, At: r.at, Slack: r.slack, Stall: r.stall})
	}
	return dst
}

// finite reports whether v has a JSON encoding.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// encodable reports whether the sanitizer's state has a JSON encoding: the
// last snapshot's pacing rate is its one float.
func (s *sanitizerState) encodable() bool { return finite(float64(s.Last.PacingRate)) }

// restoreRecords refills a fresh fifo from checkpointed records,
// re-applying the cap (a restore with a tighter cap evicts the oldest
// records immediately; the counts stay in the restored sanitizer, so the
// evictions are deliberately not re-counted here). Records are by
// contract cumulative byte counts; a hand-edited or corrupted checkpoint
// with decreasing counts is clamped monotone here so the ring's sorted
// invariant — which the binary-search matcher relies on — survives
// arbitrary input. The remaining fields are clamped into the ranges the
// matcher's arithmetic assumes: a push timestamp after the restore
// instant would produce a negative delay at match time, and a negative
// slack — or a stall debt above the tracker's restored total — would
// subtract from the error bound instead of widening it, quietly breaking
// the bounded-or-flagged contract on corrupted input.
func restoreRecords(f *fifo, recs []RecordCheckpoint, now units.Time, maxStall units.Duration) {
	var floor uint64
	for _, r := range recs {
		if r.Bytes < floor {
			r.Bytes = floor
		}
		floor = r.Bytes
		if r.At > now {
			r.At = now
		}
		if r.Slack < 0 {
			r.Slack = 0
		}
		if r.Stall < 0 {
			r.Stall = 0
		} else if r.Stall > maxStall {
			r.Stall = maxStall
		}
		f.push(record{bytes: r.Bytes, at: r.At, slack: r.Slack, stall: r.Stall})
	}
}
