package stack

import (
	"element/internal/cc"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/sockbuf"
	"element/internal/tcp"
	"element/internal/tcpinfo"
	"element/internal/telemetry"
	"element/internal/units"
)

// TraceHooks are the ground-truth observation points of the paper's
// Figure 1/5: application write/read at the socket API, and TCP
// transmit/receive in the transport layer — plus finer-grained points
// (in-order advance, raw packet arrival, sndbuf resizes) used by the
// waterfall attribution. All hooks are optional. The three packet hooks
// borrow p: it is valid only during the call, so an observer copies the
// fields it keeps.
type TraceHooks struct {
	AppWrite     func(endSeq uint64, n int)         // socket write accepted n bytes up to endSeq
	TCPTransmit  func(seq uint64, n int, retx bool) // tcp_transmit_skb
	TCPReceive   func(seq uint64, n int)            // tcp_v4_do_rcv (new bytes only)
	TCPInOrder   func(cum uint64)                   // rcv_nxt advanced (reassembly released bytes)
	AppRead      func(endSeq uint64, n int)         // socket read consumed n bytes up to endSeq
	PacketSent   func(p *pkt.Packet)                // data packet handed to the NIC
	AckSent      func(p *pkt.Packet)                // ACK handed to the NIC
	PacketRecv   func(p *pkt.Packet)                // data packet arriving at the receiver's NIC
	SndbufResize func(from, to int)                 // send-buffer capacity change (autotune/SO_SNDBUF)
	_            struct{}                           // force keyed literals
}

// ConnConfig configures one simulated TCP connection.
type ConnConfig struct {
	// FlowID pins the connection's flow identifier (0 = allocate from the
	// Net). Callers running one private Net per connection — the fleet —
	// set this to keep IDs unique across Nets, so by-flow dispatch
	// (waterfall link taps, flow-scoped telemetry) never collides.
	FlowID int
	// CC selects the congestion-control algorithm (default cubic).
	CC cc.Kind
	// MSS is the segment size (default tcp.DefaultMSS).
	MSS int
	// SndBuf pins the send buffer (SO_SNDBUF); 0 enables Linux-style
	// auto-tuning, capped at sockbuf.DefaultSndBufMax.
	SndBuf int
	// RcvBuf sets the receive buffer capacity (0 = default).
	RcvBuf int
	// ECN negotiates ECN on the connection.
	ECN bool
	// SenderHooks/ReceiverHooks attach ground-truth tracing to each side.
	SenderHooks   TraceHooks
	ReceiverHooks TraceHooks
	// Telem records the connection's activity (send-buffer occupancy and
	// writer blocking under "sockbuf", transport events under "tcp"), scoped
	// to the connection's flow ID. Nil disables instrumentation.
	Telem *telemetry.Telemetry
}

// Conn is one established TCP connection across a Net: a sending Socket at
// the A side and a receiving Socket at the B side.
//
// The connection is created established (no handshake): the paper's
// measurements all concern the steady data phase.
type Conn struct {
	FlowID   int
	Sender   *Socket
	Receiver *Socket
}

// Dial creates a connection whose data flows from the A side to the B side
// of n.
func Dial(n *Net, cfg ConnConfig) *Conn {
	return dial(n, cfg, false)
}

// DialReverse creates a connection whose data flows from the B side to the
// A side — e.g. a control/feedback channel running against the main
// stream's direction (the VR headset's viewpoint channel).
func DialReverse(n *Net, cfg ConnConfig) *Conn {
	return dial(n, cfg, true)
}

func dial(n *Net, cfg ConnConfig, reverse bool) *Conn {
	id := cfg.FlowID
	if id == 0 {
		id = n.allocFlowID()
	}
	eng := n.eng
	mss := cfg.MSS
	if mss == 0 {
		mss = tcp.DefaultMSS
	}
	alg := cc.MustNew(cfg.CC, mss, eng.Rand())

	sndSock := &Socket{eng: eng, flowID: id}
	rcvSock := &Socket{eng: eng, flowID: id}
	sndSock.hooks = cfg.SenderHooks
	rcvSock.hooks = cfg.ReceiverHooks

	sndSock.snd = sockbuf.NewSendBuffer(cfg.SndBuf, sockbuf.DefaultSndBufMax)
	if h := cfg.SenderHooks.SndbufResize; h != nil {
		sndSock.snd.SetOnResize(h)
	}
	rcvBuf := sockbuf.NewReceiveBuffer(cfg.RcvBuf)

	var tcpSc *telemetry.Scope
	if cfg.Telem != nil {
		sbSc := cfg.Telem.Scope("sockbuf").WithFlow(id)
		sndSock.snd.Instrument(sbSc)
		sndSock.telem = sbSc
		sndSock.blocksC = sbSc.Counter("writer_blocks")
		sndSock.blocksS = sbSc.Sampler("writer_blocked", telemetry.DefaultSampleGap, "want_bytes")
		tcpSc = cfg.Telem.Scope("tcp").WithFlow(id)
	}

	sndSock.writable = sim.NewCond()
	rcvSock.readable = sim.NewCond()

	// Data direction: sender at A unless reversed.
	sendData, sendAck := n.path.SendAtoB, n.path.SendBtoA
	if reverse {
		sendData, sendAck = n.path.SendBtoA, n.path.SendAtoB
	}

	sndSock.ep = tcp.New(eng, tcp.Config{
		FlowID: id,
		MSS:    mss,
		CC:     alg,
		ECN:    cfg.ECN,
		Telem:  tcpSc,
		Pool:   n.pool,
		Out: func(p *pkt.Packet) {
			if sndSock.hooks.PacketSent != nil {
				sndSock.hooks.PacketSent(p)
			}
			sendData(p)
		},
		OnAcked: func() {
			sndSock.snd.Ack(sndSock.ep.SndUna())
			sndSock.snd.Tune(alg.CwndBytes())
			sndSock.writable.Broadcast()
		},
		OnTransmit: sndSock.hooks.TCPTransmit,
	})

	rcvSock.ep = tcp.New(eng, tcp.Config{
		FlowID: id,
		MSS:    mss,
		ECN:    cfg.ECN,
		Telem:  tcpSc,
		Pool:   n.pool,
		RcvBuf: rcvBuf,
		Out: func(p *pkt.Packet) {
			if rcvSock.hooks.AckSent != nil {
				rcvSock.hooks.AckSent(p)
			}
			sendAck(p)
		},
		OnReadable:   func() { rcvSock.readable.Broadcast() },
		OnReceiveNew: rcvSock.hooks.TCPReceive,
		OnInOrder:    rcvSock.hooks.TCPInOrder,
	})

	// The receiver-side dispatch optionally observes raw arriving data
	// packets before TCP processes them (the waterfall's wire→reassembly
	// boundary). ACKs flow to the sender socket and are not reported.
	rcvHandle := rcvSock.ep.Handle
	if h := rcvSock.hooks.PacketRecv; h != nil {
		rcvHandle = func(p *pkt.Packet) {
			if p.PayloadLen > 0 {
				h(p)
			}
			rcvSock.ep.Handle(p)
		}
	}
	if reverse {
		n.atB[id] = sndSock.ep.Handle
		n.atA[id] = rcvHandle
	} else {
		n.atA[id] = sndSock.ep.Handle
		n.atB[id] = rcvHandle
	}

	return &Conn{FlowID: id, Sender: sndSock, Receiver: rcvSock}
}

// Close tears the connection down (stops timers on both sides).
func (c *Conn) Close() {
	c.Sender.ep.Close()
	c.Receiver.ep.Close()
	c.Sender.writable.Broadcast()
	c.Receiver.readable.Broadcast()
	c.Sender.closed = true
	c.Receiver.closed = true
}

// Socket is one side of a connection, exposing the blocking BSD-style
// calls the paper's applications use plus getsockopt(TCP_INFO).
type Socket struct {
	eng    *sim.Engine
	flowID int
	ep     *tcp.Endpoint
	closed bool

	// Sender half.
	snd      *sockbuf.SendBuffer
	writable *sim.Cond

	// Receiver half.
	readable *sim.Cond
	readCum  uint64

	hooks TraceHooks

	// Telemetry handles (nil when uninstrumented).
	telem   *telemetry.Scope
	blocksC *telemetry.Counter
	blocksS *telemetry.Sampler
}

// FlowID reports the connection's flow identifier.
func (s *Socket) FlowID() int { return s.flowID }

// Write blocks (in virtual time) until at least one byte of the n requested
// fits into the send buffer, then hands the accepted bytes to TCP. It
// returns the number of bytes accepted, possibly less than n — exactly the
// semantics of a blocking socket write for a byte count. Returns 0 when
// the socket is closed.
func (s *Socket) Write(p *sim.Proc, n int) int {
	if s.snd == nil {
		panic("stack: Write on a receive-only socket")
	}
	for !s.closed {
		if got := s.snd.Write(n); got > 0 {
			end := s.snd.Written()
			if s.hooks.AppWrite != nil {
				s.hooks.AppWrite(end, got)
			}
			s.ep.SetAvailable(end)
			return got
		}
		if s.telem != nil {
			s.blocksC.Inc()
			if now := s.eng.Now(); s.blocksS.DueAt(now) {
				s.blocksS.SampleValsAt(now, float64(n))
			}
		}
		s.writable.Wait(p)
	}
	return 0
}

// WriteFull writes exactly n bytes, blocking as needed. It returns n, or
// fewer if the socket closes mid-write.
func (s *Socket) WriteFull(p *sim.Proc, n int) int {
	total := 0
	for total < n && !s.closed {
		got := s.Write(p, n-total)
		if got == 0 {
			break
		}
		total += got
	}
	return total
}

// Read blocks until at least one byte is readable, consumes up to max
// bytes, and returns the count. Returns 0 when the socket is closed.
func (s *Socket) Read(p *sim.Proc, max int) int {
	for !s.closed {
		if avail := s.ep.ReadableBytes(); avail > 0 {
			n := avail
			if n > max {
				n = max
			}
			cum := s.ep.Consume(n)
			s.readCum = cum
			if s.hooks.AppRead != nil {
				s.hooks.AppRead(cum, n)
			}
			return n
		}
		s.readable.Wait(p)
	}
	return 0
}

// ReadCum reports the cumulative bytes the application has read.
func (s *Socket) ReadCum() uint64 { return s.readCum }

// WrittenCum reports the cumulative bytes the application has written.
func (s *Socket) WrittenCum() uint64 {
	if s.snd == nil {
		return 0
	}
	return s.snd.Written()
}

// AckedCum reports the cumulative bytes acknowledged by the peer.
func (s *Socket) AckedCum() uint64 { return s.ep.SndUna() }

// GetsockoptTCPInfo returns the TCP_INFO snapshot, available at user level
// without privileges — the only kernel-derived input ELEMENT uses.
func (s *Socket) GetsockoptTCPInfo() tcpinfo.TCPInfo {
	info := s.ep.Info()
	if s.snd != nil {
		info.SndBuf = s.snd.Cap()
	}
	return info
}

// SetSndBuf pins the send-buffer size, as setsockopt(SO_SNDBUF) does,
// disabling auto-tuning. (Like Linux, which doubles the requested value,
// callers should pass the byte count they actually want buffered.)
func (s *Socket) SetSndBuf(bytes int) {
	if s.snd != nil {
		s.snd.SetCap(bytes)
		s.writable.Broadcast()
	}
}

// SndBufCap reports the current send-buffer capacity.
func (s *Socket) SndBufCap() int {
	if s.snd == nil {
		return 0
	}
	return s.snd.Cap()
}

// SndBufUsed reports the current send-buffer occupancy (written, unacked).
func (s *Socket) SndBufUsed() int {
	if s.snd == nil {
		return 0
	}
	return s.snd.Used()
}

// SRTT exposes the smoothed RTT (also available via GetsockoptTCPInfo).
func (s *Socket) SRTT() units.Duration { return s.ep.SRTT() }

// Endpoint exposes the TCP machine for white-box tests.
func (s *Socket) Endpoint() *tcp.Endpoint { return s.ep }
