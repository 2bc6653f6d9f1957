package core

import (
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/tcpinfo"
	"element/internal/telemetry"
	"element/internal/units"
)

// RetInfo mirrors the paper's `retinfo` struct (Figure 12): what every
// ELEMENT wrapper call returns to the application, so that new applications
// can adapt their data rate (resolution, encoding, frame count) to the
// current latency situation.
type RetInfo struct {
	// Size is the number of bytes actually written/read, like the return
	// value of the wrapped socket call.
	Size int
	// BufDelay is the latest estimated socket-buffer delay in seconds.
	BufDelay float64
	// Throughput is the estimated TCP-layer throughput in bits/s.
	Throughput float64
	// RTT is the smoothed RTT in seconds.
	RTT float64
	// Cwnd is the congestion window in segments.
	Cwnd int
	// Confidence grades the BufDelay estimate and ErrBound is its error
	// bar in seconds (see Measurement). Applications adapting their rate
	// should ignore low-confidence BufDelay values.
	Confidence Confidence
	// ErrBound is the BufDelay error bar in seconds.
	ErrBound float64
}

// Options configures an ELEMENT attachment (the init_em arguments). The
// trackers poll at DefaultInterval with DefaultRecordCap records; a caller
// that needs either changed builds them with NewSenderTrackerOpts.
type Options struct {
	// Minimize runs Algorithm 3 on the sender (the "default latency
	// minimization algorithm" used for legacy applications).
	Minimize bool
	// Wireless marks the sender's access network as LTE/WiFi, enabling
	// Algorithm 3's buffer resizing step.
	Wireless bool
	// Minimizer overrides individual Algorithm 3 parameters.
	Minimizer MinimizerConfig
	// Telem records tracker and minimizer activity under the "core"
	// component, scoped to the socket's flow. Nil disables instrumentation.
	Telem *telemetry.Telemetry
	// Info overrides the TCP_INFO source ELEMENT polls (default: the
	// socket itself). The fault-injection layer uses it to interpose a
	// degraded view without touching the data path.
	Info InfoSource
}

// Sender is ELEMENT attached to the sending side of a connection: the
// em_send/em_write wrapper plus Algorithm 1 (and optionally Algorithm 3).
type Sender struct {
	eng     *sim.Engine
	sock    *stack.Socket
	Tracker *SenderTracker
	Min     *Minimizer // nil unless Options.Minimize
	tput    rateEWMA   // of the acked bytes
}

// AttachSender wires ELEMENT onto a sending socket.
func AttachSender(eng *sim.Engine, sock *stack.Socket, opts Options) *Sender {
	src := InfoSource(sock)
	if opts.Info != nil {
		src = opts.Info
	}
	s := &Sender{eng: eng, sock: sock}
	s.Tracker = NewSenderTrackerOpts(eng, src, TrackerOptions{})
	sc := opts.Telem.Scope("core").WithFlow(sock.FlowID())
	s.Tracker.Instrument(sc)
	if opts.Minimize {
		cfg := opts.Minimizer
		cfg.Wireless = cfg.Wireless || opts.Wireless
		s.Min = NewMinimizer(eng, src, s.Tracker, cfg)
		s.Min.Instrument(sc)
	}
	return s
}

// Send is em_send/em_write: the wrapped socket write. It records the write
// for Algorithm 1, runs Algorithm 3's pacing if enabled, and returns the
// ELEMENT measurement snapshot.
func (s *Sender) Send(p *sim.Proc, n int) RetInfo {
	got := s.sock.Write(p, n)
	if got > 0 {
		cum := s.sock.WrittenCum()
		s.Tracker.OnWrite(cum)
		if s.Min != nil {
			s.Min.AfterSend(p, cum)
		}
	}
	return s.retinfo(got)
}

// SendFull writes exactly n bytes (blocking), pacing each chunk.
func (s *Sender) SendFull(p *sim.Proc, n int) RetInfo {
	total := 0
	var ri RetInfo
	for total < n {
		ri = s.Send(p, n-total)
		if ri.Size == 0 {
			break
		}
		total += ri.Size
	}
	ri.Size = total
	return ri
}

// retinfo assembles the RetInfo snapshot. TCP_INFO is read through the
// tracker's sanitizer so RetInfo sees the same defended view.
func (s *Sender) retinfo(size int) RetInfo {
	ti := s.Tracker.san.GetsockoptTCPInfo()
	return s.Tracker.retInfo(size, ti, s.ThroughputEstimate())
}

// retInfo is the RetInfo of a wrapper call that moved size bytes, from
// the snapshot ti, the throughput EWMA tput and the latest sample.
func (t *tracker) retInfo(size int, ti tcpinfo.TCPInfo, tput float64) RetInfo {
	latest := t.est.Latest()
	return RetInfo{
		Size:       size,
		BufDelay:   latest.Delay.Seconds(),
		Throughput: tput,
		RTT:        ti.RTT.Seconds(),
		Cwnd:       ti.SndCwnd,
		Confidence: latest.Confidence,
		ErrBound:   latest.ErrBound.Seconds(),
	}
}

// rateEWMA is a throughput EWMA in bits/s over a cumulative byte counter.
type rateEWMA struct {
	last uint64
	at   units.Time
	bps  float64
}

// update folds the counter's value cum at now into the EWMA and returns
// it. A counter that went backwards (the capability probe flipping
// estimators) re-bases the delta instead of poisoning the EWMA.
func (r *rateEWMA) update(now units.Time, cum uint64) float64 {
	if now > r.at {
		if cum >= r.last {
			inst := float64(cum-r.last) * 8 / now.Sub(r.at).Seconds()
			if r.bps == 0 {
				r.bps = inst
			} else {
				r.bps = 0.875*r.bps + 0.125*inst
			}
		}
		r.last, r.at = cum, now
	}
	return r.bps
}

// Estimates exposes the sender-side delay estimates.
func (s *Sender) Estimates() *Estimates { return s.Tracker.Estimates() }

// ThroughputEstimate reports the current TCP-layer throughput EWMA in
// bits/s (the RetInfo.Throughput value) without performing a send. It
// reads through the tracker's sanitizer, so a counter jumping backwards
// cannot underflow the delta and poison the EWMA; when tcpi_bytes_acked
// is unavailable the acked-bytes proxy comes from the segment counters.
func (s *Sender) ThroughputEstimate() float64 {
	ti := s.Tracker.san.GetsockoptTCPInfo()
	acked := ti.BytesAcked
	if s.Tracker.san.bytesAckedAbsent() {
		segs := ti.SegsOut - ti.TotalRetrans - ti.Unacked
		if segs < 0 {
			segs = 0
		}
		acked = uint64(segs) * uint64(ti.SndMSS)
	}
	return s.tput.update(s.eng.Now(), acked)
}

// BufferedEstimate reports the bytes ELEMENT estimates to be waiting in
// the TCP send buffer right now (Figure 10's y-axis).
func (s *Sender) BufferedEstimate() int {
	cum := s.sock.WrittenCum()
	best := s.Tracker.EstimatedTCPBytes()
	if cum <= best {
		return 0
	}
	return int(cum - best)
}

// Close is fin_em for the sender.
func (s *Sender) Close() {
	s.Tracker.Stop()
	if s.Min != nil {
		s.Min.Stop()
	}
}

// Receiver is ELEMENT attached to the receiving side: the em_read wrapper
// plus Algorithm 2.
type Receiver struct {
	eng     *sim.Engine
	sock    *stack.Socket
	Tracker *ReceiverTracker
	tput    rateEWMA // of the bytes read
}

// AttachReceiver wires ELEMENT onto a receiving socket.
func AttachReceiver(eng *sim.Engine, sock *stack.Socket, opts Options) *Receiver {
	src := InfoSource(sock)
	if opts.Info != nil {
		src = opts.Info
	}
	r := &Receiver{
		eng:     eng,
		sock:    sock,
		Tracker: NewReceiverTrackerOpts(eng, src, TrackerOptions{}),
	}
	r.Tracker.Instrument(opts.Telem.Scope("core").WithFlow(sock.FlowID()))
	return r
}

// Read is em_read: the wrapped socket read plus Algorithm 2 matching.
func (r *Receiver) Read(p *sim.Proc, max int) RetInfo {
	got := r.sock.Read(p, max)
	if got > 0 {
		// A short read means the in-order queue is now empty — the drain
		// signal the tracker uses to re-base segs_in inflation.
		r.Tracker.OnRead(r.sock.ReadCum(), got, got < max)
	}
	ti := r.Tracker.san.GetsockoptTCPInfo()
	return r.Tracker.retInfo(got, ti, r.tput.update(r.eng.Now(), r.sock.ReadCum()))
}

// Estimates exposes the receiver-side delay estimates.
func (r *Receiver) Estimates() *Estimates { return r.Tracker.Estimates() }

// Close is fin_em for the receiver.
func (r *Receiver) Close() { r.Tracker.Stop() }

// StreamWriter is the write surface legacy applications program against;
// both a raw socket and an ELEMENT-wrapped socket satisfy it, which is the
// simulator's equivalent of LD_PRELOAD interposition: the application code
// is identical either way.
type StreamWriter interface {
	Write(p *sim.Proc, n int) int
}

// StreamReader is the read surface legacy applications program against.
type StreamReader interface {
	Read(p *sim.Proc, max int) int
}

// Interposed adapts an ELEMENT Sender to the plain socket Write signature,
// transparently running the trackers and the latency-minimization
// algorithm underneath — the dynamic-binding deployment of §4.5.
type Interposed struct{ S *Sender }

// Write implements StreamWriter.
func (w Interposed) Write(p *sim.Proc, n int) int { return w.S.Send(p, n).Size }

// InterposedReader adapts an ELEMENT Receiver to the plain Read signature.
type InterposedReader struct{ R *Receiver }

// Read implements StreamReader.
func (r InterposedReader) Read(p *sim.Proc, max int) int { return r.R.Read(p, max).Size }

// Interfaces are satisfied by the raw sockets too.
var (
	_ StreamWriter = (*stack.Socket)(nil)
	_ StreamReader = (*stack.Socket)(nil)
	_ StreamWriter = Interposed{}
	_ StreamReader = InterposedReader{}
)
