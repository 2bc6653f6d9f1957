package core

import (
	"element/internal/tcpinfo"
	"element/internal/telemetry"
)

// This file hardens ELEMENT against hostile TCP_INFO input. The paper
// itself lists the ways a real kernel short-changes the algorithms:
// tcpi_bytes_acked is absent before Linux 3.15 (and per-connection before
// 4.1), GRO/LRO coalescing corrupts the tcpi_segs_in × tcpi_rcv_mss
// receiver estimate, and MSS drifts under PMTU changes. On top of that,
// production snapshots stall (rate-limited getsockopt), jump backwards
// (stats bugs, 32-bit wraps), or report zero MSS mid-handshake. The
// sanitizer sits between every core reader and the raw InfoSource so all
// of ELEMENT — trackers, minimizer, throughput EWMA — sees one defended
// view with an anomaly audit trail, instead of each call site trusting
// the kernel separately.

// Confidence grades one estimator sample. The bounded-or-flagged
// contract: a sample at ConfidenceMedium or higher claims its true delay
// lies within ErrBound of the reported delay; ConfidenceLow explicitly
// disclaims the sample (degraded input — use it for trends, not control).
type Confidence uint8

// Confidence grades, least to most trustworthy.
const (
	ConfidenceLow Confidence = iota
	ConfidenceMedium
	ConfidenceHigh
)

// String reports the conventional lowercase name.
func (c Confidence) String() string {
	switch c {
	case ConfidenceLow:
		return "low"
	case ConfidenceMedium:
		return "medium"
	case ConfidenceHigh:
		return "high"
	}
	return "unknown"
}

// AnomalyCounts is the audit trail of everything the sanitizer and the
// trackers had to defend against. Deterministic runs produce identical
// counts, which the fault-injection scenario tests assert.
type AnomalyCounts struct {
	// Backwards counts cumulative counters (BytesAcked, SegsIn, SegsOut,
	// TotalRetrans) observed moving backwards; the reading is clamped to
	// the last good value.
	Backwards int
	// BestRegressions counts B_est regressions clamped by a tracker on
	// top of the per-field clamps (e.g. Unacked collapsing while acked
	// bytes stall).
	BestRegressions int
	// MSSChanges counts SndMSS/RcvMSS drifting between samples. The new
	// value is accepted — drift is legal — but confidence drops while the
	// estimate re-bases.
	MSSChanges int
	// ZeroFields counts snapshots with a zero MSS (substituted with the
	// last good value).
	ZeroFields int
	// StalledPolls counts polls that observed no estimator progress while
	// work was outstanding (frozen snapshots, rate-limited sampling, a
	// stalled sampling thread).
	StalledPolls int
	// FallbackPolls counts polls served by the degraded B_est estimator
	// because tcpi_bytes_acked is unavailable.
	FallbackPolls int
	// Overruns counts fallback estimates clamped to the bytes actually
	// written (the segment-counter estimate drifted past reality).
	Overruns int
	// Lags counts receiver-side proofs that B_est fell behind the bytes
	// the application already read (GRO-style coalescing).
	Lags int
	// Resyncs counts receiver-side drain re-bases that found B_est running
	// materially ahead of the bytes actually delivered (tcpi_segs_in counts
	// duplicate segments from spurious retransmissions, inflating the
	// estimate without bound unless corrected).
	Resyncs int
	// Evictions counts records dropped from a tracker's bounded FIFO
	// because pushes outpaced the drain past the configured cap. Each
	// eviction is a delay sample that will never be produced — bounded
	// memory traded against series completeness, audited rather than
	// silent.
	Evictions int
	// Restores counts checkpoint restores this tracker's series has been
	// resumed through; the outage window of each restore is folded into
	// the error bounds of the samples that sat through it.
	Restores int
	// Sheds counts overload-governor demotions this tracker's coverage has
	// been degraded through. Every shed widens the bounds of the samples
	// that sat through it (stall debt, like a restore outage) — coverage is
	// traded away under pressure, audited rather than silently skewed.
	Sheds int
}

// Total sums every anomaly class.
func (a AnomalyCounts) Total() int {
	return a.Backwards + a.BestRegressions + a.MSSChanges + a.ZeroFields +
		a.StalledPolls + a.FallbackPolls + a.Overruns + a.Lags + a.Resyncs +
		a.Evictions + a.Restores + a.Sheds
}

// Add accumulates another tally field-by-field (combining the two sides
// of a connection, or a whole fleet).
func (a *AnomalyCounts) Add(o AnomalyCounts) {
	a.Backwards += o.Backwards
	a.BestRegressions += o.BestRegressions
	a.MSSChanges += o.MSSChanges
	a.ZeroFields += o.ZeroFields
	a.StalledPolls += o.StalledPolls
	a.FallbackPolls += o.FallbackPolls
	a.Overruns += o.Overruns
	a.Lags += o.Lags
	a.Resyncs += o.Resyncs
	a.Evictions += o.Evictions
	a.Restores += o.Restores
	a.Sheds += o.Sheds
}

// capState tracks whether the kernel exposes tcpi_bytes_acked.
type capState uint8

const (
	capUnknown capState = iota
	capPresent
	capAbsent
)

// fallbackProbeSegs is how many non-retransmitted segments must leave
// with BytesAcked still zero before the sanitizer concludes the field is
// unsupported and switches to the segment-counter estimator.
const fallbackProbeSegs = 4

// sanitizerState is the sanitizer's resumable state, declared in the
// order its checkpoint carries it: the last good snapshot the
// monotonicity clamps compare against, the tcpi_bytes_acked capability
// verdict, the anomaly audit trail and the MSS envelope.
type sanitizerState struct {
	Seen   bool            `json:"seen"`
	Cap    capState        `json:"cap"`
	Last   tcpinfo.TCPInfo `json:"last"`
	Counts AnomalyCounts   `json:"counts"`
	// SndMSSMin/Max span every SndMSS value ever reported (after zero
	// substitution). Under PMTU flapping or a lying kernel the true MSS is
	// unknowable from TCP_INFO, but it lies inside the observed envelope —
	// the spread converts into an honest widening of the sender bound.
	SndMSSMin int `json:"snd_mss_min,omitempty"`
	SndMSSMax int `json:"snd_mss_max,omitempty"`
}

// sanitizer wraps an InfoSource with monotonicity clamps, zero-field
// substitution and capability detection. It implements InfoSource itself,
// so the minimizer and the throughput EWMA read through the same defence
// as the trackers.
type sanitizer struct {
	src InfoSource
	sanitizerState

	// Telemetry handles (nil when uninstrumented).
	backwardsC *telemetry.Counter
	mssC       *telemetry.Counter
	stallsC    *telemetry.Counter
	fallbackC  *telemetry.Counter
}

func newSanitizer(src InfoSource) *sanitizer { return &sanitizer{src: src} }

// instrument registers the sanitizer's anomaly counters under sc.
func (s *sanitizer) instrument(sc *telemetry.Scope) {
	s.backwardsC = sc.Counter("anomaly_backwards")
	s.mssC = sc.Counter("anomaly_mss_change")
	s.stallsC = sc.Counter("anomaly_stalled_polls")
	s.fallbackC = sc.Counter("fallback_polls")
}

// GetsockoptTCPInfo returns the defended snapshot: cumulative counters
// never move backwards, a zero MSS is replaced by the last good value,
// and the tcpi_bytes_acked capability probe advances. Anomalies are
// counted, never fatal.
func (s *sanitizer) GetsockoptTCPInfo() tcpinfo.TCPInfo {
	ti := s.src.GetsockoptTCPInfo()
	// Clamp before the first-snapshot shortcut: a negative packets_out is
	// nonsense on any poll, including the very first.
	if ti.Unacked < 0 {
		ti.Unacked = 0
	}
	if !s.Seen {
		s.Seen = true
		s.trackMSS(ti)
		s.probeCap(ti)
		s.Last = ti
		return ti
	}
	// Zero-field substitution before the drift check, so a transient zero
	// is not double-counted as two MSS changes.
	if ti.SndMSS == 0 && s.Last.SndMSS != 0 {
		ti.SndMSS = s.Last.SndMSS
		s.Counts.ZeroFields++
	}
	if ti.RcvMSS == 0 && s.Last.RcvMSS != 0 {
		ti.RcvMSS = s.Last.RcvMSS
		s.Counts.ZeroFields++
	}
	if (ti.SndMSS != s.Last.SndMSS && s.Last.SndMSS != 0) ||
		(ti.RcvMSS != s.Last.RcvMSS && s.Last.RcvMSS != 0) {
		s.Counts.MSSChanges++
		s.mssC.Inc()
	}
	back := false
	if ti.BytesAcked < s.Last.BytesAcked {
		ti.BytesAcked = s.Last.BytesAcked
		back = true
	}
	if ti.SegsIn < s.Last.SegsIn {
		ti.SegsIn = s.Last.SegsIn
		back = true
	}
	if ti.SegsOut < s.Last.SegsOut {
		ti.SegsOut = s.Last.SegsOut
		back = true
	}
	if ti.TotalRetrans < s.Last.TotalRetrans {
		ti.TotalRetrans = s.Last.TotalRetrans
		back = true
	}
	if back {
		s.Counts.Backwards++
		s.backwardsC.Inc()
	}
	s.trackMSS(ti)
	s.probeCap(ti)
	s.Last = ti
	return ti
}

// trackMSS extends the observed SndMSS envelope.
func (s *sanitizer) trackMSS(ti tcpinfo.TCPInfo) {
	if ti.SndMSS <= 0 {
		return
	}
	if s.SndMSSMin == 0 || ti.SndMSS < s.SndMSSMin {
		s.SndMSSMin = ti.SndMSS
	}
	if ti.SndMSS > s.SndMSSMax {
		s.SndMSSMax = ti.SndMSS
	}
}

// sndMSSSpread reports the width of the observed SndMSS envelope: zero on
// a healthy connection, positive once the reported MSS has drifted. The
// true MSS lies inside the envelope, so |reported − true| ≤ spread.
func (s *sanitizer) sndMSSSpread() int {
	if s.SndMSSMax > s.SndMSSMin {
		return s.SndMSSMax - s.SndMSSMin
	}
	return 0
}

// SetSndBuf delegates to the raw source (buffer control needs no
// sanitizing).
func (s *sanitizer) SetSndBuf(bytes int) { s.src.SetSndBuf(bytes) }

// probeCap advances the tcpi_bytes_acked capability detector. A nonzero
// reading settles the question for good (real kernels do not lose the
// field mid-connection); sustained zero while data segments leave marks
// it absent, which enables the fallback estimator.
func (s *sanitizer) probeCap(ti tcpinfo.TCPInfo) {
	if ti.BytesAcked > 0 {
		s.Cap = capPresent
		return
	}
	// Subtract Unacked so segments still in flight don't count: during the
	// first RTT many segments are out while BytesAcked is legitimately
	// still zero. Only segments the counters say were delivered and acked
	// with BytesAcked stuck at zero prove the field is missing.
	if s.Cap == capUnknown && ti.SegsOut-ti.TotalRetrans-ti.Unacked >= fallbackProbeSegs {
		s.Cap = capAbsent
	}
}

// bytesAckedAbsent reports whether the capability probe has concluded the
// kernel does not expose tcpi_bytes_acked.
func (s *sanitizer) bytesAckedAbsent() bool { return s.Cap == capAbsent }

// BEst computes the sender-side "bytes that left the TCP layer" estimate
// from a sanitized snapshot. The primary form is the paper's
// tcpi_bytes_acked + tcpi_unacked·tcpi_snd_mss; when the capability probe
// found tcpi_bytes_acked absent (pre-3.15/4.1 kernels) it derives the
// estimate from segment counters instead — every non-retransmitted
// segment that left carries ≈ one MSS — and reports fallback=true so the
// caller widens bounds and lowers confidence.
func (s *sanitizer) BEst(ti tcpinfo.TCPInfo) (best uint64, fallback bool) {
	if s.bytesAckedAbsent() {
		segs := ti.SegsOut - ti.TotalRetrans
		if segs < 0 {
			segs = 0
		}
		s.Counts.FallbackPolls++
		s.fallbackC.Inc()
		return uint64(segs) * uint64(ti.SndMSS), true
	}
	return ti.BytesAcked + uint64(ti.Unacked*ti.SndMSS), false
}

// Anomalies reports the audit trail so far.
func (s *sanitizer) Anomalies() AnomalyCounts { return s.Counts }
