// Package tcp implements a segment-level TCP machine: congestion-window and
// receiver-window limited transmission, RFC 6298 RTO with exponential
// backoff, SACK-based loss recovery on an RFC 6675 scoreboard (FACK loss
// marking three segments below the highest SACKed byte, RACK-style
// detection of lost retransmissions, the three-duplicate-ACK rule only for
// SACK-less peers), receiver-side reassembly with an out-of-order queue,
// delayed ACKs, ECN echo, and optional pacing (for BBR).
//
// Like the kernel's packets_out/sacked_out/lost_out/retrans_out, the
// scoreboard's summaries are kept as counters updated at the transition
// that changes them, never re-derived by walking the window, so the work
// per ACK and per segment does not depend on the window size. Over the
// live segments sent[sentHead:], which are sorted by seq and contiguous:
//
//   - a segment is in exactly one of four states: outstanding, sacked,
//     lost and queued for retransmission, or lost and retransmitted
//     (queued implies lost; sacked excludes both);
//   - pipeBytes is the size of every segment neither sacked nor queued,
//     queuedSegs and sackedSegs count the segments in those states;
//   - no segment below queuedCursor is queued, and every segment below
//     fackCursor is sacked or lost;
//   - highestSacked is the largest end among sacked segments and
//     sackedLatest the latest (re)transmission time among them (an upper
//     bound while latestStale is set), both 0 when none is sacked;
//   - every lost-and-retransmitted segment has its {seq, retxAt} in
//     retxLog, which is ordered by time;
//   - a sacked segment's run counts sacked segments starting at it.
//
// At the receiver, ooo is sorted, its intervals neither overlap nor touch,
// all lie above rcvNxt, and oooBytes is their total size.
//
// Payloads are never materialized: segments carry byte counts and sequence
// numbers only, which is sufficient for every delay and throughput
// behaviour the paper studies.
package tcp

import (
	"sort"

	"element/internal/cc"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/sockbuf"
	"element/internal/tcpinfo"
	"element/internal/telemetry"
	"element/internal/units"
)

// DefaultMSS is the segment payload size (1460 payload + 40 header = 1500
// on the wire).
const DefaultMSS = 1460

// delayedAckTimeout matches Linux's delayed-ACK timer.
const delayedAckTimeout = 40 * units.Millisecond

// Config configures an Endpoint.
type Config struct {
	// FlowID tags every packet this endpoint emits.
	FlowID int
	// MSS is the maximum segment size (payload bytes); 0 = DefaultMSS.
	MSS int
	// CC is the congestion-control algorithm (required for senders).
	CC cc.Algorithm
	// ECN negotiates ECN: data packets are sent ECT and CE marks are
	// echoed back as ECE.
	ECN bool
	// Out transmits a packet toward the peer (required). It takes
	// ownership: a tail drop releases the packet before Out returns, so the
	// endpoint reads nothing of it afterwards.
	Out func(*pkt.Packet)
	// Pool is where the endpoint's segments and ACKs come from; whoever
	// ends up with one releases it (stack.Net's demux, or a drop site).
	// Nil means heap packets that the GC owns.
	Pool *pkt.Pool
	// RcvBuf is the receive buffer (nil = default capacity).
	RcvBuf *sockbuf.ReceiveBuffer

	// OnAcked fires when snd_una advances (socket layer: wake writers,
	// run send-buffer auto-tuning).
	OnAcked func()
	// OnReadable fires when new in-order bytes become readable.
	OnReadable func()
	// OnTransmit is the ground-truth trace hook at the paper's
	// tcp_transmit_skb point (first transmissions and retransmissions).
	OnTransmit func(seq uint64, n int, retx bool)
	// OnReceiveNew is the ground-truth trace hook at the tcp_v4_do_rcv
	// point; it reports byte ranges never seen before (duplicates from
	// spurious retransmissions are filtered out).
	OnReceiveNew func(seq uint64, n int)
	// OnInOrder fires whenever rcv_nxt advances, with the new cumulative
	// in-order offset — the moment out-of-order bytes leave the reassembly
	// queue and become readable. Fires after OnReceiveNew for the same
	// segment.
	OnInOrder func(cum uint64)
	// Telem records this endpoint's transport events (retransmissions, RTO
	// fires, duplicate ACKs, out-of-order queue depth, delayed ACKs, SRTT
	// samples). Nil disables instrumentation at zero cost.
	Telem *telemetry.Scope
}

// telem bundles the endpoint's metric handles, resolved once at New.
type telem struct {
	sc          *telemetry.Scope
	retransC    *telemetry.Counter
	rtoC        *telemetry.Counter
	dupAckC     *telemetry.Counter
	delayedAckC *telemetry.Counter
	oooBytesG   *telemetry.Gauge
	srttH       *telemetry.Histogram
	srttS       *telemetry.Sampler
	oooS        *telemetry.Sampler
}

// sentSeg records one transmitted, not-yet-acknowledged segment and its
// SACK scoreboard state (RFC 6675).
type sentSeg struct {
	seq    uint64
	end    uint64
	sentAt units.Time
	retxAt units.Time // time of the latest retransmission (0 = none)
	gen    int        // retransmission generation (0 = only the first send)
	retx   bool       // ever retransmitted (Karn: no RTT sample)
	sacked bool       // selectively acknowledged by the receiver
	lost   bool       // deemed lost by the FACK rule; retransmit when possible
	queued bool       // lost and not yet retransmitted since marked
	run    int32      // when sacked: this many segments from here on are sacked (>= 1)
}

// retxRec logs one retransmission for the lost-retransmission rule.
type retxRec struct {
	seq uint64
	at  units.Time
}

// interval is a half-open byte range [start, end) in the out-of-order queue.
type interval struct{ start, end uint64 }

// Endpoint is one side of a TCP connection.
type Endpoint struct {
	eng *sim.Engine
	cfg Config
	mss int

	// Sender state.
	appLimit  uint64 // stream bytes the app has made available
	sndUna    uint64
	sndNxt    uint64
	rwnd      int
	sent      []sentSeg // live (unacked) segments, FIFO
	sentHead  int
	dupAcks   int
	inRecov   bool
	recover   uint64
	rtt       rttEstimator
	rtoTimer  sim.Timer
	paceTimer sim.Timer
	nextSend  units.Time // earliest next transmission when pacing

	// Scoreboard summaries; the package comment states what each equals.
	pipeBytes     int
	queuedSegs    int
	sackedSegs    int
	queuedCursor  int
	fackCursor    int
	highestSacked uint64
	sackedLatest  units.Time
	latestStale   bool
	retxLog       []retxRec // retransmissions not yet ruled on, FIFO
	retxHead      int

	// Receiver state.
	rcvNxt      uint64
	appConsumed uint64
	ooo         []interval
	oooBytes    int
	rcvBuf      *sockbuf.ReceiveBuffer
	lastArrival interval // most recent out-of-order arrival (first SACK block, RFC 2018)
	lastAdvWnd  int      // last advertised window (for window updates)
	unackedSegs int      // data segments since last ACK (delayed-ACK state)
	ackTimer    sim.Timer
	echoECE     bool

	// Counters for TCP_INFO.
	segsIn       int
	segsOut      int
	totalRetrans int
	closed       bool

	tm *telem // nil unless Config.Telem was set
}

// New creates an endpoint on eng.
func New(eng *sim.Engine, cfg Config) *Endpoint {
	if cfg.MSS == 0 {
		cfg.MSS = DefaultMSS
	}
	rb := cfg.RcvBuf
	if rb == nil {
		rb = sockbuf.NewReceiveBuffer(0)
	}
	e := &Endpoint{
		eng:        eng,
		cfg:        cfg,
		mss:        cfg.MSS,
		rwnd:       rb.Cap(), // assume a symmetric peer before the first ACK
		rcvBuf:     rb,
		lastAdvWnd: rb.Cap(),
		rtt:        newRTTEstimator(),
	}
	if cfg.Telem != nil {
		e.tm = &telem{
			sc:          cfg.Telem,
			retransC:    cfg.Telem.Counter("retransmits"),
			rtoC:        cfg.Telem.Counter("rto_fires"),
			dupAckC:     cfg.Telem.Counter("dup_acks"),
			delayedAckC: cfg.Telem.Counter("delayed_acks"),
			oooBytesG:   cfg.Telem.Gauge("ooo_bytes"),
			srttH:       cfg.Telem.Histogram("srtt_seconds"),
			srttS:       cfg.Telem.Sampler("srtt", telemetry.DefaultSampleGap, "seconds"),
			oooS:        cfg.Telem.Sampler("ooo_queue", telemetry.DefaultSampleGap, "bytes", "ranges"),
		}
	}
	return e
}

// MSS reports the segment size.
func (e *Endpoint) MSS() int { return e.mss }

// --- Sender side ---------------------------------------------------------

// SetAvailable tells the sender that the application stream now extends to
// cum bytes; the endpoint transmits as the windows allow.
func (e *Endpoint) SetAvailable(cum uint64) {
	if cum > e.appLimit {
		e.appLimit = cum
		e.trySend()
	}
}

// SndUna reports the cumulative acknowledged bytes.
func (e *Endpoint) SndUna() uint64 { return e.sndUna }

// SndNxt reports the next sequence number to transmit.
func (e *Endpoint) SndNxt() uint64 { return e.sndNxt }

// packetsOut reports the number of in-flight segments (tcpi_unacked).
func (e *Endpoint) packetsOut() int { return len(e.sent) - e.sentHead }

// nextQueued returns the first segment queued for retransmission by loss
// recovery, resuming at queuedCursor.
func (e *Endpoint) nextQueued() *sentSeg {
	if e.queuedSegs == 0 {
		return nil
	}
	i := e.queuedCursor
	for !e.sent[i].queued {
		i++
	}
	e.queuedCursor = i
	return &e.sent[i]
}

// queueLost marks the outstanding or retransmitted segment i lost and
// queues it for retransmission, which takes it out of the pipe (RFC 6675:
// lost and its retransmission not out yet).
func (e *Endpoint) queueLost(i int) {
	s := &e.sent[i]
	s.lost, s.queued = true, true
	e.pipeBytes -= int(s.end - s.seq)
	e.queuedSegs++
	if i < e.queuedCursor {
		e.queuedCursor = i
	}
}

// segFrom returns the index of the first live segment starting at or after
// seq (len(e.sent) if there is none).
func (e *Endpoint) segFrom(seq uint64) int {
	live := e.sent[e.sentHead:]
	return e.sentHead + sort.Search(len(live), func(i int) bool { return live[i].seq >= seq })
}

// trySend transmits retransmissions and new data as the congestion and
// receive windows (and the pacing rate, if any) allow.
func (e *Endpoint) trySend() {
	if e.cfg.CC == nil || e.closed {
		return
	}
	for {
		wnd := e.cfg.CC.CwndBytes()
		if e.rwnd < wnd {
			wnd = e.rwnd
		}
		if e.pipeBytes >= wnd {
			return // window-limited
		}
		// Loss retransmissions take priority over new data.
		seg := e.nextQueued()
		var n int
		if seg == nil {
			if e.sndNxt >= e.appLimit {
				return // app-limited
			}
			n = e.segSize()
		} else {
			n = int(seg.end - seg.seq)
		}
		if rate := e.cfg.CC.PacingRate(); rate > 0 {
			now := e.eng.Now()
			if now < e.nextSend {
				e.armPaceTimer()
				return
			}
			e.nextSend = now.Add(rate.TransmissionTime(n + pkt.DefaultHeaderLen))
		}
		e.transmit(seg, n)
	}
}

// segSize is the next segment's payload size.
func (e *Endpoint) segSize() int {
	n := e.mss
	if avail := int(e.appLimit - e.sndNxt); avail < n {
		n = avail
	}
	return n
}

func (e *Endpoint) armPaceTimer() {
	if e.paceTimer.Active() {
		return
	}
	e.paceTimer = e.eng.ScheduleCall(e.nextSend.Sub(e.eng.Now()), firePace, e)
}

// The endpoint's three timers share package-level handlers that take the
// *Endpoint as the event argument, so arming one allocates nothing and
// constructing an endpoint binds nothing.
func firePace(arg any)       { arg.(*Endpoint).trySend() }
func fireRTO(arg any)        { arg.(*Endpoint).onRTO() }
func fireDelayedAck(arg any) { arg.(*Endpoint).onDelayedAck() }

// transmit emits one segment of n bytes and does the bookkeeping shared by
// new sends and retransmissions: seg is the queued segment to retransmit,
// or nil to send new data at snd_nxt.
func (e *Endpoint) transmit(seg *sentSeg, n int) {
	now := e.eng.Now()
	p := e.cfg.Pool.Get()
	p.FlowID = e.cfg.FlowID
	p.Seq = e.sndNxt
	p.PayloadLen = n
	p.HeaderLen = pkt.DefaultHeaderLen
	p.ECT = e.cfg.ECN
	p.SentAt = now
	e.segsOut++
	e.pipeBytes += n
	if seg != nil {
		p.Seq = seg.seq
		e.totalRetrans++
		if e.tm != nil {
			e.tm.retransC.Inc()
			e.tm.sc.Event(telemetry.SevInfo, "retransmit",
				telemetry.F("seq", float64(seg.seq)), telemetry.F("bytes", float64(n)))
		}
		// Mark the record so a later ACK does not take an RTT sample from
		// it (Karn's algorithm).
		seg.queued = false
		e.queuedSegs--
		seg.retx = true
		seg.retxAt = now
		seg.gen++
		p.Gen = seg.gen
		e.retxLog = append(e.retxLog, retxRec{seg.seq, now})
	} else {
		e.sent = append(e.sent, sentSeg{seq: e.sndNxt, end: e.sndNxt + uint64(n), sentAt: now})
	}
	retx := seg != nil // seg may not be used past the append
	if e.cfg.OnTransmit != nil {
		e.cfg.OnTransmit(p.Seq, n, retx)
	}
	e.armRTO()
	e.cfg.Out(p)
	if !retx {
		e.sndNxt += uint64(n)
	}
}

// armRTO (re)starts the retransmission timer.
func (e *Endpoint) armRTO() {
	if e.rtoTimer.Active() {
		return
	}
	e.rtoTimer = e.eng.ScheduleCall(e.rtt.rto, fireRTO, e)
}

func (e *Endpoint) resetRTO() {
	e.rtoTimer.Stop()
	if e.packetsOut() > 0 {
		e.armRTO()
	}
}

// onRTO fires on retransmission timeout: every outstanding un-SACKed
// segment is considered lost, the window collapses, and retransmission
// restarts from snd_una under the new (tiny) window.
func (e *Endpoint) onRTO() {
	if e.closed || e.packetsOut() == 0 {
		return
	}
	if e.tm != nil {
		e.tm.rtoC.Inc()
		e.tm.sc.Event(telemetry.SevWarn, "rto_fire",
			telemetry.F("rto_seconds", e.rtt.rto.Seconds()),
			telemetry.F("packets_out", float64(e.packetsOut())))
	}
	e.cfg.CC.OnRTO(e.eng.Now())
	e.rtt.backoff()
	e.dupAcks = 0
	e.inRecov = false
	for i := e.sentHead; i < len(e.sent); i++ {
		s := &e.sent[i]
		if !s.sacked {
			s.lost = true
			s.queued = true
		}
	}
	e.pipeBytes = 0
	e.queuedSegs = e.packetsOut() - e.sackedSegs
	e.queuedCursor = e.sentHead
	e.armRTO() // keep the timer running even if trySend cannot transmit
	e.trySend()
}

// dupThresh is the classic three-duplicate threshold, in segments.
const dupThresh = 3

// HandleAck processes an incoming ACK at the sender: SACK scoreboard
// update, cumulative-ACK accounting, FACK-style loss detection, and
// congestion-control callbacks.
func (e *Endpoint) HandleAck(p *pkt.Packet) {
	if e.closed {
		return
	}
	now := e.eng.Now()
	if p.Wnd > 0 {
		e.rwnd = p.Wnd
	}
	ack := p.Ack
	if ack > e.sndNxt {
		ack = e.sndNxt // corrupted/future ACK: clamp
	}
	if e.processSack(p.Sack) {
		// SACK progress shows the network is still delivering: re-arm the
		// retransmission timer (Linux's tcp_rearm_rto behaviour), which
		// avoids spurious RTOs while a retransmission drains a deep queue.
		e.resetRTO()
	}
	switch {
	case ack > e.sndUna:
		e.handleNewAck(now, ack, p.ECE)
	case ack == e.sndUna && len(p.Sack) == 0 && e.packetsOut() > 0:
		// Legacy duplicate-ACK counting for SACK-less peers.
		e.dupAcks++
		if e.tm != nil {
			e.tm.dupAckC.Inc()
		}
		if e.dupAcks >= dupThresh && e.sentHead < len(e.sent) {
			if s := &e.sent[e.sentHead]; !s.sacked && !s.lost {
				e.queueLost(e.sentHead)
			}
		}
	}
	e.detectLosses(now)
	e.trySend()
}

// processSack marks segments covered by the receiver's SACK blocks and
// reports whether any segment was newly SACKed. A segment is SACKed only
// when one block covers it whole.
func (e *Endpoint) processSack(blocks []pkt.Range) bool {
	if len(blocks) == 0 {
		return false
	}
	// Newly SACKed segments must be visited in ascending sequence order
	// whatever order the blocks come in (the first is the latest arrival,
	// not the lowest): the RTT estimator is order-sensitive. Visiting the
	// blocks by ascending Start does that even when they overlap. The copy
	// leaves the packet as it arrived; up to the four blocks the option
	// space allows it stays on the stack.
	var buf [pkt.MaxSackBlocks]pkt.Range
	sorted := append(buf[:0], blocks...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Start < sorted[j-1].Start; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	progress := false
	now := e.eng.Now()
	for _, b := range sorted {
		first := e.segFrom(b.Start)
		i := first
		for i < len(e.sent) && e.sent[i].end <= b.End {
			s := &e.sent[i]
			if s.sacked {
				i += int(s.run) // a block mostly repeats what earlier ACKs said
				continue
			}
			e.markSacked(s, now)
			progress = true
			i++
		}
		if i > first {
			e.sent[first].run = int32(i - first) // so the next ACK's walk of this block is one step
		}
	}
	return progress
}

// markSacked moves the outstanding, queued or retransmitted segment s to
// the sacked state.
func (e *Endpoint) markSacked(s *sentSeg, now units.Time) {
	if s.queued {
		e.queuedSegs--
	} else {
		e.pipeBytes -= int(s.end - s.seq)
	}
	s.sacked, s.lost, s.queued, s.run = true, false, false, 1
	e.sackedSegs++
	if s.end > e.highestSacked {
		e.highestSacked = s.end
	}
	if t := max(s.sentAt, s.retxAt); t >= e.sackedLatest {
		e.sackedLatest, e.latestStale = t, false
	}
	// Sample the RTT at first-SACK time (as Linux does in
	// tcp_sacktag_one): waiting for the cumulative ACK would inflate the
	// sample by the hole-blocking time.
	if !s.retx {
		e.rtt.sample(now.Sub(s.sentAt))
	}
}

// refreshSackedLatest recomputes sackedLatest over the SACKed segments
// still in the window. The value can fall when a cumulative ACK removes the
// segment that held it, so a running maximum would not do: the removal
// marks it stale, and detectLosses refreshes it when the answer could
// matter.
func (e *Endpoint) refreshSackedLatest() {
	e.sackedLatest, e.latestStale = 0, false
	for i := e.sentHead; i < len(e.sent) && e.sent[i].seq < e.highestSacked; i++ {
		if s := &e.sent[i]; s.sacked {
			e.sackedLatest = max(e.sackedLatest, s.sentAt, s.retxAt)
		}
	}
}

// detectLosses applies the FACK rule: a segment is lost once bytes at least
// dupThresh segments beyond it have been SACKed. It also detects lost
// *retransmissions* RACK-style: the path delivers in order, so a SACK for
// any segment sent after a retransmission proves that retransmission was
// dropped. Newly detected losses enter fast recovery (one congestion event
// per window).
func (e *Endpoint) detectLosses(now units.Time) {
	newlyLost := false
	// highestSacked only rises while a segment is SACKed and segment ends
	// rise with the index, so the rule can only newly hold at fackCursor.
	thresh := uint64(dupThresh * e.mss)
	for ; e.fackCursor < len(e.sent) && e.highestSacked >= e.sent[e.fackCursor].end+thresh; e.fackCursor++ {
		if s := &e.sent[e.fackCursor]; !s.sacked && !s.lost {
			e.queueLost(e.fackCursor)
			newlyLost = true
		}
	}
	// Retransmissions are logged in time order, so those a later-sent SACKed
	// segment has overtaken are at the front of the log, as are the records
	// of segments that have since left the window.
	firstSeq := e.sndNxt
	if e.sentHead < len(e.sent) {
		firstSeq = e.sent[e.sentHead].seq
	}
	for e.retxHead < len(e.retxLog) {
		r := e.retxLog[e.retxHead]
		if r.seq >= firstSeq {
			if e.latestStale && r.at < e.sackedLatest {
				e.refreshSackedLatest()
			}
			if r.at >= e.sackedLatest {
				break
			}
			// The retransmission itself was lost, unless the segment has
			// been SACKed, queued or retransmitted again since.
			i := e.segFrom(r.seq)
			if s := &e.sent[i]; s.lost && !s.queued && s.retxAt == r.at && r.at > 0 {
				e.queueLost(i)
			}
		}
		e.retxHead++
	}
	e.retxLog, e.retxHead = compact(e.retxLog, e.retxHead)
	if e.sentHead < len(e.sent) && e.sent[e.sentHead].queued {
		newlyLost = true
	}
	if newlyLost && !e.inRecov {
		e.inRecov = true
		e.recover = e.sndNxt
		e.cfg.CC.OnLoss(now)
	}
}

// compact drops the consumed prefix q[:head] of a FIFO kept as a slice and
// a head index once it is at least half of q (and at once when nothing is
// left), reusing the backing array.
func compact[T any](q []T, head int) ([]T, int) {
	if head == len(q) || (head > 64 && head*2 >= len(q)) {
		return q[:copy(q, q[head:])], 0
	}
	return q, head
}

func (e *Endpoint) handleNewAck(now units.Time, ack uint64, ece bool) {
	ackedBytes := int(ack - e.sndUna)
	e.sndUna = ack
	e.dupAcks = 0

	// Drop fully-acked segments; take an RTT sample from the newest
	// fully-acked segment that was never retransmitted nor already sampled
	// at SACK time. A segment the ACK covers only in part stays, counted
	// whole.
	var rttSample units.Duration
	for e.sentHead < len(e.sent) && e.sent[e.sentHead].end <= ack {
		s := e.sent[e.sentHead]
		switch {
		case s.sacked:
			e.sackedSegs--
			if max(s.sentAt, s.retxAt) == e.sackedLatest {
				e.latestStale = true
			}
		case s.queued:
			e.queuedSegs--
		default:
			e.pipeBytes -= int(s.end - s.seq)
		}
		if !s.retx && !s.sacked {
			rttSample = now.Sub(s.sentAt)
		}
		e.sent[e.sentHead] = sentSeg{}
		e.sentHead++
	}
	if e.sackedSegs == 0 {
		e.highestSacked, e.sackedLatest, e.latestStale = 0, 0, false
	}
	e.queuedCursor = max(e.queuedCursor, e.sentHead)
	e.fackCursor = max(e.fackCursor, e.sentHead)
	head := e.sentHead
	e.sent, e.sentHead = compact(e.sent, head)
	e.queuedCursor -= head - e.sentHead
	e.fackCursor -= head - e.sentHead
	if rttSample > 0 {
		e.rtt.sample(rttSample)
		if e.tm != nil {
			e.tm.srttH.Observe(e.rtt.srtt.Seconds())
			if e.tm.srttS.DueAt(now) {
				e.tm.srttS.SampleValsAt(now, e.rtt.srtt.Seconds())
			}
		}
	}

	if e.inRecov && ack >= e.recover {
		e.inRecov = false
	}
	if ece {
		e.cfg.CC.OnECN(now)
	}
	e.cfg.CC.OnAck(now, ackedBytes, rttSample, int(e.sndNxt-e.sndUna), e.inRecov)
	e.resetRTO()
	if e.cfg.OnAcked != nil {
		e.cfg.OnAcked()
	}
}

// --- Receiver side -------------------------------------------------------

// HandleData processes an incoming data segment at the receiver.
func (e *Endpoint) HandleData(p *pkt.Packet) {
	if e.closed {
		return
	}
	e.segsIn++
	if p.CE {
		e.echoECE = true
	}
	seq, end := p.Seq, p.End()
	immediateAck := false

	switch {
	case end <= e.rcvNxt:
		// Pure duplicate (spurious retransmission): ACK immediately.
		immediateAck = true
	case seq > e.rcvNxt:
		// Out of order: queue the new part, dup-ACK immediately.
		e.insertOOO(seq, end)
		e.lastArrival = interval{seq, end}
		immediateAck = true
	default:
		// In-order (possibly overlapping the left edge, or bytes already
		// present in the out-of-order queue).
		if seq < e.rcvNxt {
			seq = e.rcvNxt
		}
		e.reportGaps(0, seq, end)
		e.rcvNxt = end
		e.mergeOOO()
		if e.cfg.OnInOrder != nil {
			e.cfg.OnInOrder(e.rcvNxt)
		}
		if len(e.ooo) > 0 {
			immediateAck = true // still a hole: keep the sender informed
		}
		if e.cfg.OnReadable != nil {
			e.cfg.OnReadable()
		}
	}

	e.unackedSegs++
	if immediateAck || e.unackedSegs >= 2 {
		e.sendAck()
	} else if !e.ackTimer.Active() {
		e.ackTimer = e.eng.ScheduleCall(delayedAckTimeout, fireDelayedAck, e)
	}
}

// onDelayedAck fires when the delayed-ACK timer expires.
func (e *Endpoint) onDelayedAck() {
	if e.unackedSegs > 0 {
		if e.tm != nil {
			e.tm.delayedAckC.Inc()
		}
		e.sendAck()
	}
}

// reportGaps reports, in ascending order, the parts of [seq, end) that the
// out-of-order queue does not already hold. Intervals before ooo[i] must
// end below seq. It returns the index past the last interval that overlaps
// or touches [seq, end), and the number of new bytes.
func (e *Endpoint) reportGaps(i int, seq, end uint64) (j, added int) {
	for j = i; j < len(e.ooo) && e.ooo[j].start <= end; j++ {
		iv := e.ooo[j]
		if iv.start > seq {
			e.reportNew(seq, iv.start)
			added += int(iv.start - seq)
		}
		seq = max(seq, iv.end)
	}
	if seq < end {
		e.reportNew(seq, end)
		added += int(end - seq)
	}
	return j, added
}

// insertOOO adds [seq, end) to the out-of-order queue, reporting only the
// genuinely new byte ranges. The queue stays sorted with no two intervals
// overlapping or touching: the new range is spliced in over the intervals
// it overlaps or touches.
func (e *Endpoint) insertOOO(seq, end uint64) {
	i := e.oooFrom(seq)
	j, added := e.reportGaps(i, seq, end)
	if added == 0 {
		return
	}
	e.oooBytes += added
	if i == j {
		e.ooo = append(e.ooo, interval{})
		copy(e.ooo[i+1:], e.ooo[i:])
	} else {
		seq = min(seq, e.ooo[i].start)
		end = max(end, e.ooo[j-1].end)
		e.ooo = append(e.ooo[:i+1], e.ooo[j:]...)
	}
	e.ooo[i] = interval{seq, end}
	e.sampleOOO()
}

// oooFrom returns the index of the first queued interval that ends at or
// after seq (len(e.ooo) if there is none).
func (e *Endpoint) oooFrom(seq uint64) int {
	return sort.Search(len(e.ooo), func(i int) bool { return e.ooo[i].end >= seq })
}

// sampleOOO records the out-of-order queue depth after it changed.
func (e *Endpoint) sampleOOO() {
	if e.tm == nil {
		return
	}
	e.tm.oooBytesG.Set(float64(e.oooBytes))
	if e.tm.oooS.Due() {
		e.tm.oooS.SampleVals(float64(e.oooBytes), float64(len(e.ooo)))
	}
}

// mergeOOO pulls now-in-order intervals out of the queue after rcvNxt
// advanced, shifting the rest down so the backing array is kept.
func (e *Endpoint) mergeOOO() {
	n := 0
	for ; n < len(e.ooo) && e.ooo[n].start <= e.rcvNxt; n++ {
		iv := e.ooo[n]
		e.oooBytes -= int(iv.end - iv.start)
		e.rcvNxt = max(e.rcvNxt, iv.end)
	}
	if n > 0 {
		e.ooo = e.ooo[:copy(e.ooo, e.ooo[n:])]
		e.sampleOOO()
	}
}

// reportNew invokes the receive trace hook for a new byte range.
func (e *Endpoint) reportNew(seq, end uint64) {
	if e.cfg.OnReceiveNew != nil && end > seq {
		e.cfg.OnReceiveNew(seq, int(end-seq))
	}
}

// sendAck emits a (possibly duplicate) cumulative ACK.
func (e *Endpoint) sendAck() {
	e.unackedSegs = 0
	e.ackTimer.Stop()
	held := int(e.rcvNxt-e.appConsumed) + e.oooBytes
	wnd := e.rcvBuf.AdvertisedWindow(held)
	e.lastAdvWnd = wnd
	p := e.cfg.Pool.Get()
	if len(e.ooo) > 0 {
		// Include up to four SACK blocks, like the TCP option space allows,
		// in the packet's own storage. Per RFC 2018 the first block must be
		// the range containing the most recently received segment — with
		// many holes this is what lets the sender learn about every
		// delivered range, not just the lowest ones.
		sack := p.SackBuf()
		first := e.oooFrom(e.lastArrival.start + 1)
		if first < len(e.ooo) && e.ooo[first].start <= e.lastArrival.start {
			sack = append(sack, pkt.Range{Start: e.ooo[first].start, End: e.ooo[first].end})
		} else {
			first = -1
		}
		for i := 0; i < len(e.ooo) && len(sack) < cap(sack); i++ {
			if i != first {
				sack = append(sack, pkt.Range{Start: e.ooo[i].start, End: e.ooo[i].end})
			}
		}
		p.Sack = sack
	}
	p.FlowID = e.cfg.FlowID
	p.Flags = pkt.FlagACK
	p.Ack = e.rcvNxt
	p.Wnd = wnd
	p.ECE = e.echoECE
	p.HeaderLen = pkt.DefaultHeaderLen
	p.SentAt = e.eng.Now()
	e.echoECE = false
	e.cfg.Out(p)
}

// ReadableBytes reports in-order bytes the application has not consumed.
func (e *Endpoint) ReadableBytes() int { return int(e.rcvNxt - e.appConsumed) }

// Consume marks n readable bytes as read by the application and returns the
// cumulative consumed offset. If the advertised window had collapsed and
// this read reopened it, a window-update ACK is sent — without it a sender
// stalled on a zero window would never learn it may resume (this stack has
// no persist timer).
func (e *Endpoint) Consume(n int) uint64 {
	if n > e.ReadableBytes() {
		n = e.ReadableBytes()
	}
	e.appConsumed += uint64(n)
	if !e.closed && e.lastAdvWnd < 2*e.mss && n > 0 {
		held := int(e.rcvNxt-e.appConsumed) + e.oooBytes
		if e.rcvBuf.AdvertisedWindow(held) >= 2*e.mss {
			e.sendAck()
		}
	}
	return e.appConsumed
}

// RcvNxt reports the next expected sequence number.
func (e *Endpoint) RcvNxt() uint64 { return e.rcvNxt }

// --- Introspection -------------------------------------------------------

// Handle dispatches an incoming packet to the data or ACK path. A packet
// carrying both data and an ACK (not produced by this stack) is treated as
// data first.
func (e *Endpoint) Handle(p *pkt.Packet) {
	if p.PayloadLen > 0 {
		e.HandleData(p)
		return
	}
	if p.Flags.Has(pkt.FlagACK) {
		e.HandleAck(p)
	}
}

// Close stops all timers. Further events are ignored.
func (e *Endpoint) Close() {
	e.closed = true
	e.rtoTimer.Stop()
	e.paceTimer.Stop()
	e.ackTimer.Stop()
}

// SRTT reports the smoothed RTT estimate.
func (e *Endpoint) SRTT() units.Duration { return e.rtt.srtt }

// Info reports the TCP_INFO snapshot for this endpoint. The socket layer
// fills in SndBuf.
func (e *Endpoint) Info() tcpinfo.TCPInfo {
	info := tcpinfo.TCPInfo{
		BytesAcked:   e.sndUna,
		Unacked:      e.packetsOut(),
		SndMSS:       e.mss,
		RcvMSS:       e.mss,
		SegsIn:       e.segsIn,
		SegsOut:      e.segsOut,
		RTT:          e.rtt.srtt,
		RTTVar:       e.rtt.rttvar,
		TotalRetrans: e.totalRetrans,
	}
	if e.cfg.CC != nil {
		info.SndCwnd = e.cfg.CC.CwndBytes() / e.mss
		info.SndSsthresh = e.cfg.CC.SsthreshSegs()
		info.PacingRate = e.cfg.CC.PacingRate()
	}
	return info
}
