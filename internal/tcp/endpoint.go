// Package tcp implements a segment-level TCP machine: congestion-window and
// receiver-window limited transmission, RFC 6298 RTO with exponential
// backoff, NewReno-style fast retransmit/recovery on three duplicate ACKs,
// receiver-side reassembly with an out-of-order queue, delayed ACKs, ECN
// echo, and optional pacing (for BBR).
//
// Payloads are never materialized: segments carry byte counts and sequence
// numbers only, which is sufficient for every delay and throughput
// behaviour the paper studies.
package tcp

import (
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
	// Out transmits a packet toward the peer (required).
	Out func(*pkt.Packet)
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

// pipe estimates the bytes currently in flight per the RFC 6675 pipe
// algorithm: transmitted, not SACKed, and (unless retransmitted) not lost.
func (e *Endpoint) pipe() int {
	n := 0
	for i := e.sentHead; i < len(e.sent); i++ {
		s := &e.sent[i]
		if s.sacked {
			continue
		}
		if s.lost && s.queued {
			continue // lost and its retransmission not out yet
		}
		n += int(s.end - s.seq)
	}
	return n
}

// nextLost returns the first segment queued for (re)transmission by loss
// recovery.
func (e *Endpoint) nextLost() *sentSeg {
	for i := e.sentHead; i < len(e.sent); i++ {
		if e.sent[i].lost && e.sent[i].queued {
			return &e.sent[i]
		}
	}
	return nil
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
		if e.pipe() >= wnd {
			return // window-limited
		}
		// Loss retransmissions take priority over new data.
		seg := e.nextLost()
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
		if seg != nil {
			seg.queued = false
			e.transmit(seg.seq, n, true)
		} else {
			e.transmit(e.sndNxt, n, false)
			e.sndNxt += uint64(n)
		}
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

// transmit emits one segment and does the bookkeeping shared by new sends
// and retransmissions.
func (e *Endpoint) transmit(seq uint64, n int, retx bool) {
	now := e.eng.Now()
	p := &pkt.Packet{
		FlowID:     e.cfg.FlowID,
		Seq:        seq,
		PayloadLen: n,
		HeaderLen:  pkt.DefaultHeaderLen,
		ECT:        e.cfg.ECN,
		SentAt:     now,
	}
	e.segsOut++
	if retx {
		e.totalRetrans++
		if e.tm != nil {
			e.tm.retransC.Inc()
			e.tm.sc.Event(telemetry.SevInfo, "retransmit",
				telemetry.F("seq", float64(seq)), telemetry.F("bytes", float64(n)))
		}
		// Update the existing record so a later ACK does not take an RTT
		// sample from it (Karn's algorithm).
		for i := e.sentHead; i < len(e.sent); i++ {
			if e.sent[i].seq == seq {
				e.sent[i].retx = true
				e.sent[i].retxAt = now
				e.sent[i].gen++
				p.Gen = e.sent[i].gen
				break
			}
		}
	} else {
		e.sent = append(e.sent, sentSeg{seq: seq, end: seq + uint64(n), sentAt: now})
	}
	if e.cfg.OnTransmit != nil {
		e.cfg.OnTransmit(seq, n, retx)
	}
	e.armRTO()
	e.cfg.Out(p)
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
			s := &e.sent[e.sentHead]
			if !s.sacked && !s.lost {
				s.lost = true
				s.queued = true
			}
		}
	}
	e.detectLosses(now)
	e.trySend()
}

// processSack marks segments covered by the receiver's SACK blocks and
// reports whether any segment was newly SACKed.
func (e *Endpoint) processSack(blocks []pkt.Range) bool {
	if len(blocks) == 0 {
		return false
	}
	progress := false
	now := e.eng.Now()
	for i := e.sentHead; i < len(e.sent); i++ {
		s := &e.sent[i]
		if s.sacked {
			continue
		}
		for _, b := range blocks {
			if s.seq >= b.Start && s.end <= b.End {
				s.sacked = true
				s.lost = false
				s.queued = false
				progress = true
				// Sample the RTT at first-SACK time (as Linux does in
				// tcp_sacktag_one): waiting for the cumulative ACK would
				// inflate the sample by the hole-blocking time.
				if !s.retx {
					e.rtt.sample(now.Sub(s.sentAt))
				}
				break
			}
		}
	}
	return progress
}

// detectLosses applies the FACK rule: a segment is lost once bytes at least
// dupThresh segments beyond it have been SACKed. It also detects lost
// *retransmissions* RACK-style: the path delivers in order, so a SACK for
// any segment sent after a retransmission proves that retransmission was
// dropped. Newly detected losses enter fast recovery (one congestion event
// per window).
func (e *Endpoint) detectLosses(now units.Time) {
	var highestSacked uint64
	var latestSackedSentAt units.Time
	for i := e.sentHead; i < len(e.sent); i++ {
		s := &e.sent[i]
		if !s.sacked {
			continue
		}
		if s.end > highestSacked {
			highestSacked = s.end
		}
		t := s.sentAt
		if s.retxAt > t {
			t = s.retxAt
		}
		if t > latestSackedSentAt {
			latestSackedSentAt = t
		}
	}
	newlyLost := false
	for i := e.sentHead; i < len(e.sent); i++ {
		s := &e.sent[i]
		if s.sacked {
			continue
		}
		if !s.lost && highestSacked >= s.end+uint64(dupThresh*e.mss) {
			s.lost = true
			s.queued = true
			newlyLost = true
		}
		if s.lost && !s.queued && s.retxAt > 0 && latestSackedSentAt > s.retxAt {
			// The retransmission itself was lost: queue it again.
			s.queued = true
		}
	}
	if e.sentHead < len(e.sent) && e.sent[e.sentHead].lost && e.sent[e.sentHead].queued {
		newlyLost = true
	}
	if newlyLost && !e.inRecov {
		e.inRecov = true
		e.recover = e.sndNxt
		e.cfg.CC.OnLoss(now)
	}
}

func (e *Endpoint) handleNewAck(now units.Time, ack uint64, ece bool) {
	ackedBytes := int(ack - e.sndUna)
	e.sndUna = ack
	e.dupAcks = 0

	// Drop fully-acked segments; take an RTT sample from the newest
	// fully-acked segment that was never retransmitted nor already sampled
	// at SACK time.
	var rttSample units.Duration
	for e.sentHead < len(e.sent) && e.sent[e.sentHead].end <= ack {
		s := e.sent[e.sentHead]
		if !s.retx && !s.sacked {
			rttSample = now.Sub(s.sentAt)
		}
		e.sent[e.sentHead] = sentSeg{}
		e.sentHead++
	}
	if e.sentHead > 64 && e.sentHead*2 >= len(e.sent) {
		n := copy(e.sent, e.sent[e.sentHead:])
		e.sent = e.sent[:n]
		e.sentHead = 0
	}
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
		if len(e.ooo) == 0 {
			e.reportNew(seq, end) // nothing queued to subtract: the common case allocates nothing
		} else {
			for _, r := range e.subtractOOO(seq, end) {
				e.reportNew(r.start, r.end)
			}
		}
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

// subtractOOO returns the parts of [seq, end) not already present in the
// out-of-order queue.
func (e *Endpoint) subtractOOO(seq, end uint64) []interval {
	newRanges := []interval{{seq, end}}
	for _, iv := range e.ooo {
		var next []interval
		for _, r := range newRanges {
			// Overlap split.
			if iv.end <= r.start || iv.start >= r.end {
				next = append(next, r)
				continue
			}
			if r.start < iv.start {
				next = append(next, interval{r.start, iv.start})
			}
			if r.end > iv.end {
				next = append(next, interval{iv.end, r.end})
			}
		}
		newRanges = next
	}
	return newRanges
}

// insertOOO adds [seq, end) to the out-of-order queue, reporting only the
// genuinely new byte ranges, and keeps the queue sorted and disjoint.
func (e *Endpoint) insertOOO(seq, end uint64) {
	newRanges := e.subtractOOO(seq, end)
	for _, r := range newRanges {
		e.reportNew(r.start, r.end)
		e.oooBytes += int(r.end - r.start)
	}
	if len(newRanges) == 0 {
		return
	}
	// Insert and coalesce.
	e.ooo = append(e.ooo, interval{seq, end})
	e.normalizeOOO()
	e.sampleOOO()
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

// normalizeOOO sorts and merges the out-of-order intervals.
func (e *Endpoint) normalizeOOO() {
	// Insertion sort: the queue is tiny in practice.
	for i := 1; i < len(e.ooo); i++ {
		for j := i; j > 0 && e.ooo[j].start < e.ooo[j-1].start; j-- {
			e.ooo[j], e.ooo[j-1] = e.ooo[j-1], e.ooo[j]
		}
	}
	merged := e.ooo[:0]
	for _, iv := range e.ooo {
		if n := len(merged); n > 0 && iv.start <= merged[n-1].end {
			if iv.end > merged[n-1].end {
				merged[n-1].end = iv.end
			}
			continue
		}
		merged = append(merged, iv)
	}
	e.ooo = merged
}

// mergeOOO pulls now-in-order intervals out of the queue after rcvNxt
// advanced.
func (e *Endpoint) mergeOOO() {
	merged := false
	for len(e.ooo) > 0 && e.ooo[0].start <= e.rcvNxt {
		iv := e.ooo[0]
		if iv.end > e.rcvNxt {
			e.oooBytes -= int(iv.end - iv.start)
			e.rcvNxt = iv.end
		} else {
			e.oooBytes -= int(iv.end - iv.start)
		}
		e.ooo = e.ooo[1:]
		merged = true
	}
	if merged {
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
	// Include up to four SACK blocks, like the TCP option space allows.
	// Per RFC 2018 the first block must be the range containing the most
	// recently received segment — with many holes this is what lets the
	// sender learn about every delivered range, not just the lowest ones.
	var sack []pkt.Range
	for _, iv := range e.ooo {
		if e.lastArrival.start >= iv.start && e.lastArrival.start < iv.end {
			sack = append(sack, pkt.Range{Start: iv.start, End: iv.end})
			break
		}
	}
	for i := 0; i < len(e.ooo) && len(sack) < 4; i++ {
		blk := pkt.Range{Start: e.ooo[i].start, End: e.ooo[i].end}
		if len(sack) > 0 && blk == sack[0] {
			continue
		}
		sack = append(sack, blk)
	}
	wnd := e.rcvBuf.AdvertisedWindow(held)
	e.lastAdvWnd = wnd
	p := &pkt.Packet{
		FlowID:    e.cfg.FlowID,
		Flags:     pkt.FlagACK,
		Ack:       e.rcvNxt,
		Wnd:       wnd,
		Sack:      sack,
		ECE:       e.echoECE,
		HeaderLen: pkt.DefaultHeaderLen,
		SentAt:    e.eng.Now(),
	}
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
