// Package core implements ELEMENT, the paper's primary contribution: a
// user-level framework that decomposes end-to-end TCP latency into endhost
// and network delays, and a latency-minimization algorithm built on it.
//
// ELEMENT runs entirely above the socket API. Its only inputs are
//
//   - getsockopt(TCP_INFO) snapshots (tcpinfo.TCPInfo), polled every
//     Interval (10 ms by default), and
//   - the byte counts and timestamps of the application's own socket
//     write/read calls,
//
// exactly mirroring the real system, which needs no admin privileges. The
// three algorithms are faithful transcriptions of the paper's pseudo-code:
//
//   - Algorithm 1 (SenderTracker): estimate the bytes that have left the
//     TCP layer as B_est = tcpi_bytes_acked + tcpi_unacked·tcpi_snd_mss and
//     match them against a FIFO list of (cumulative written bytes, time)
//     records; the time difference is the send-buffer delay.
//   - Algorithm 2 (ReceiverTracker): estimate the bytes received at the TCP
//     layer as B_est = tcpi_segs_in·tcpi_rcv_mss, record (B_est, time) when
//     it grows, and match application reads against the records; the time
//     difference is the receive-side delay.
//   - Algorithm 3 (Minimizer): application-level pacing that keeps just
//     enough data in the send buffer, see minimize.go.
package core

import (
	"math/bits"

	"element/internal/stats"
	"element/internal/tcpinfo"
	"element/internal/units"
)

// DefaultInterval is the paper's default tcp_info polling period P.
const DefaultInterval = 10 * units.Millisecond

// InfoSource is the slice of the socket surface ELEMENT is allowed to see:
// TCP_INFO polling and buffer-size control. *stack.Socket implements it; so
// can any recording fake in tests.
type InfoSource interface {
	// GetsockoptTCPInfo returns the current TCP_INFO snapshot.
	GetsockoptTCPInfo() tcpinfo.TCPInfo
	// SetSndBuf adjusts the send buffer (setsockopt(SO_SNDBUF)); the
	// minimizer uses it on wireless senders (Algorithm 3, γ step).
	SetSndBuf(bytes int)
}

// record is one entry of the paper's linked list: a cumulative byte count
// and the time it was observed. slack is how late the observation itself
// may be (receiver-side records inherit the gap since the previous
// estimator advance when TCP_INFO sampling stalls); stall snapshots the
// tracker's cumulative stalled time at push, so the difference at match
// time is the stalled time the record sat through. Both widen the error
// bound of every sample the record produces.
type record struct {
	bytes uint64
	at    units.Time
	slack units.Duration
	stall units.Duration
}

// DefaultRecordCap bounds a tracker's record FIFO when the caller does not
// choose a cap. A monitor must not grow without bound just because its
// drain (TCP_INFO progress or application reads) stopped keeping up with
// pushes: past the cap the oldest records are evicted and counted as
// anomalies instead of silently eating memory. 64Ki records ≈ 3 MB — far
// above anything a healthy connection accumulates at a 10 ms poll.
const DefaultRecordCap = 1 << 16

// Measurement is what ELEMENT reports alongside each delay sample — the
// columns the paper's trackers print (elapsed time, delay, cwnd, ssthresh,
// rtt). Streaming fleets hold millions of these, so the segment counts are
// int32 and the struct stays at 56 bytes.
type Measurement struct {
	At    units.Time
	Delay units.Duration
	// Bytes weights the sample: the bytes its matched write record moved
	// into TCP (sender) or the read that matched it returned (receiver).
	Bytes    int
	Cwnd     int32
	Ssthresh int32
	RTT      units.Duration
	// Confidence grades the sample and ErrBound is its self-reported
	// error bar: unless Confidence is ConfidenceLow, the true delay lies
	// within ErrBound of Delay. Degraded TCP_INFO (stalls, fallback
	// estimators, counter anomalies) widens ErrBound and lowers
	// Confidence instead of silently skewing Delay.
	Confidence Confidence
	ErrBound   units.Duration
}

// Time, AppendDeltas and AppendDecoded are Measurement's stats.Log codec.
// Each entry is a mask byte, bit k set when the k-th of its eight
// differences (At, Delay, Bytes, Cwnd, Ssthresh, RTT, Confidence, then
// ErrBound's) is not zero, followed by a varint for each bit set: most
// entries change only a few fields. Each difference is taken from the
// entry before with wrapping arithmetic, except ErrBound's, which
// predicts the jitter term: both trackers report ErrBound as a base bound
// plus |Delay − the previous Delay| (grading.jitter), so the codec writes
// the difference of ErrBound − |ΔDelay| from the same quantity of the
// entry before, zero while the base bound holds. The predictor mirrors
// the trackers' rule and costs bytes, never exactness, if it drifts from
// it (exp.TestResultLogBytes pins the bytes).
func (m Measurement) Time() units.Time { return m.At }

// measurementFields is the number of fields a Measurement's mask byte
// covers, one bit each.
const measurementFields = 8

// codecJitter is the jitter term the trackers add to ErrBound, for a
// measurement whose Delay differs from the one before by dDelay:
// |dDelay|, where |MinInt64| wraps to itself, alike in both directions.
func codecJitter(dDelay units.Duration) units.Duration {
	if dDelay < 0 {
		return -dDelay
	}
	return dDelay
}

// AppendDeltas appends next's masks and differences, each from the one
// before, starting from m; the entry before m is taken to have m's Delay.
func (m Measurement) AppendDeltas(dst []byte, next []Measurement) []byte {
	base := m.ErrBound
	for i := range next {
		v := &next[i]
		dDelay := v.Delay - m.Delay
		b := v.ErrBound - codecJitter(dDelay)
		d := [measurementFields]int64{
			int64(v.At - m.At), int64(dDelay), int64(v.Bytes - m.Bytes),
			int64(v.Cwnd - m.Cwnd), int64(v.Ssthresh - m.Ssthresh), int64(v.RTT - m.RTT),
			int64(int8(v.Confidence - m.Confidence)), int64(b - base),
		}
		at := len(dst)
		dst = append(dst, 0)
		var mask byte
		for k, x := range d {
			if x != 0 {
				mask |= 1 << k
				dst = stats.AppendVarint(dst, x)
			}
		}
		dst[at] = mask
		m, base = *v, b
	}
	return dst
}

// AppendDecoded appends the n measurements after m that src begins with.
func (m Measurement) AppendDecoded(dst []Measurement, src []byte, n int) ([]Measurement, int) {
	base, i := m.ErrBound, 0
	for range n {
		var d [measurementFields]int64
		mask := src[i]
		i++
		for ; mask != 0; mask &= mask - 1 {
			d[bits.TrailingZeros8(mask)], i = stats.Varint(src, i)
		}
		dDelay := units.Duration(d[1])
		base += units.Duration(d[7])
		m = Measurement{
			At:         m.At + units.Time(d[0]),
			Delay:      m.Delay + dDelay,
			Bytes:      m.Bytes + int(d[2]),
			Cwnd:       m.Cwnd + int32(d[3]),
			Ssthresh:   m.Ssthresh + int32(d[4]),
			RTT:        m.RTT + units.Duration(d[5]),
			Confidence: m.Confidence + Confidence(d[6]),
			ErrBound:   base + codecJitter(dDelay),
		}
		dst = append(dst, m)
	}
	return dst, i
}

// Estimates holds a tracker's output: one stats.Log of measurements, so an
// append costs the same however long the run. Like the tracker that fills
// it, an Estimates belongs to one goroutine.
type Estimates struct {
	log stats.Log[Measurement]
}

func (e *Estimates) add(m Measurement) { e.log.Append(m) }

// Reset drops every sample while keeping the log's storage. For
// callers that have fully consumed the series (benchmark harnesses
// recycling one tracker); the series restarts empty, not a window.
func (e *Estimates) Reset() { e.log.Reset() }

// DrainLog hands every retained measurement to fn in production order,
// then empties the series keeping its storage — the fleets'
// primitive: a monitor that drains after every poll holds O(poll batch)
// samples in its trackers instead of O(run), and allocates nothing once
// one batch has fit.
func (e *Estimates) DrainLog(fn func(Measurement)) {
	for m := range e.log.All() {
		fn(m)
	}
	e.Reset()
}

// Series returns the delay estimates as a stats series: a fresh
// {At, Delay, Bytes} projection of the log, decoded at read time.
func (e *Estimates) Series() stats.Series {
	s := make(stats.Series, 0, e.log.Len())
	for m := range e.log.All() {
		s = append(s, stats.Sample{At: m.At, Delay: m.Delay, Bytes: m.Bytes})
	}
	return s
}

// Log returns the full measurement log, decoded into a fresh slice. A
// consumer that reads the log while it grows drains it instead
// (DrainLog).
func (e *Estimates) Log() []Measurement { return e.log.Collect() }

// Packed returns the measurement log itself, packed, for the graders
// that read it a block at a time (CheckSenderLog, CheckReceiverLog).
func (e *Estimates) Packed() *stats.Log[Measurement] { return &e.log }

// Latest returns the most recent measurement (zero value if none).
func (e *Estimates) Latest() Measurement {
	n := e.log.Len()
	if n == 0 {
		return Measurement{}
	}
	return e.log.At(n - 1)
}
