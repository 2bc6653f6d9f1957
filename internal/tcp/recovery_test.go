package tcp

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"element/internal/cc"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/sockbuf"
	"element/internal/units"
)

// lossyPair is a sender and a receiver joined by two fixed-delay pipes that
// drop packets by count and during a blackout. It drives whole transfers
// through loss recovery for the golden, oracle and zero-alloc tests.
type lossyPair struct {
	eng      *sim.Engine
	snd, rcv *Endpoint
	alg      *countingCC

	dataEvery, ackEvery int        // drop every n-th data packet / ACK (0 = none)
	blackFrom, blackTo  units.Time // drop everything sent in [from, to)
	nData, nAck         int

	onAck func(*pkt.Packet) // sees each ACK as the sender is about to handle it
	after func()            // runs after each delivered packet has been handled
}

// countingCC counts the loss events an algorithm is told about.
type countingCC struct {
	cc.Algorithm
	losses, rtos int
}

func (c *countingCC) OnLoss(now units.Time) { c.losses++; c.Algorithm.OnLoss(now) }
func (c *countingCC) OnRTO(now units.Time)  { c.rtos++; c.Algorithm.OnRTO(now) }

// heldWindow is a congestion controller that never reacts and does not
// pace, so the peer's window alone decides how much is in flight.
func heldWindow() cc.Algorithm { return &pacedCC{cwnd: 1 << 30} }

func discard(*pkt.Packet) {}

// sackOf is the SACK block covering segments [startSeg, endSeg).
func sackOf(startSeg, endSeg int) pkt.Range {
	return pkt.Range{Start: uint64(startSeg) * DefaultMSS, End: uint64(endSeg) * DefaultMSS}
}

const pairDelay = 5 * units.Millisecond

// newLossyPair joins two endpoints under a receive window of windowSegs
// segments. sndCfg and rcvCfg carry the trace hooks; the rest is filled in.
func newLossyPair(alg cc.Algorithm, windowSegs int, sndCfg, rcvCfg Config) *lossyPair {
	x := &lossyPair{eng: sim.New(1), alg: &countingCC{Algorithm: alg}}
	sndCfg.FlowID, sndCfg.CC, sndCfg.Out = 1, x.alg, x.carryData
	x.snd = New(x.eng, sndCfg)
	rcvCfg.FlowID, rcvCfg.Out = 1, x.carryAck
	rcvCfg.RcvBuf = sockbuf.NewReceiveBuffer(windowSegs * DefaultMSS)
	rcvCfg.OnReadable = func() { x.rcv.Consume(x.rcv.ReadableBytes()) }
	x.rcv = New(x.eng, rcvCfg)
	return x
}

func (x *lossyPair) dropped(n, every int) bool {
	now := x.eng.Now()
	return (every > 0 && n%every == 0) || (now >= x.blackFrom && now < x.blackTo)
}

func (x *lossyPair) carryData(p *pkt.Packet) {
	x.nData++
	if x.dropped(x.nData, x.dataEvery) {
		return
	}
	x.eng.Schedule(pairDelay, func() {
		x.rcv.Handle(p)
		if x.after != nil {
			x.after()
		}
	})
}

func (x *lossyPair) carryAck(p *pkt.Packet) {
	x.nAck++
	if x.dropped(x.nAck, x.ackEvery) {
		return
	}
	x.eng.Schedule(pairDelay, func() {
		if x.onAck != nil {
			x.onAck(p)
		}
		x.snd.Handle(p)
		if x.after != nil {
			x.after()
		}
	})
}

// run transfers segs full segments and reports whether all were
// acknowledged before the engine ran dry or maxEvents were spent.
func (x *lossyPair) run(segs, maxEvents int) bool {
	total := uint64(segs) * DefaultMSS
	x.snd.SetAvailable(total)
	for n := 0; x.snd.SndUna() < total && n < maxEvents && x.eng.Step(); n++ {
	}
	done := x.snd.SndUna() == total
	x.snd.Close()
	x.rcv.Close()
	return done
}

// recoveryGolden is the hash TestRecoveryGolden computed at the commit
// before the scoreboard became incremental (8110ea9, full window scans).
const recoveryGolden = 0x99b93ed6d6a18c91

// TestRecoveryGolden pins what the scoreboard summaries cannot show: the
// order in which one ACK's newly SACKed segments feed the RTT estimator,
// and with it every retransmission decision downstream. The transfer loses
// every 7th data packet (retransmissions included), every 2nd ACK, and one
// RTO's worth of everything, so ACKs arrive carrying news in several blocks
// at once, the most recent arrival first.
func TestRecoveryGolden(t *testing.T) {
	h := fnv.New64a()
	put := func(tag byte, vals ...uint64) {
		var b [8]byte
		h.Write([]byte{tag})
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	x := newLossyPair(cc.NewBBR(DefaultMSS), 256,
		Config{OnTransmit: func(seq uint64, n int, retx bool) {
			r := uint64(0)
			if retx {
				r = 1
			}
			put('T', seq, uint64(n), r)
		}},
		Config{OnReceiveNew: func(seq uint64, n int) { put('R', seq, uint64(n)) }})
	x.dataEvery, x.ackEvery = 7, 2
	x.blackFrom, x.blackTo = units.Time(400*units.Millisecond), units.Time(700*units.Millisecond)
	// Count the ACKs that matter here: fresh RTT samples in two or more
	// blocks, the blocks not in ascending order.
	disordered := 0
	x.onAck = func(p *pkt.Packet) {
		last, seen := uint64(0), false
		for _, b := range p.Sack {
			for i := x.snd.sentHead; i < len(x.snd.sent); i++ {
				if s := &x.snd.sent[i]; !s.sacked && !s.retx && s.seq >= b.Start && s.end <= b.End {
					if seen && b.Start < last {
						disordered++
						return
					}
					last, seen = b.Start, true
					break
				}
			}
		}
	}
	if !x.run(4000, 1<<22) {
		t.Fatalf("transfer stalled at snd_una=%d", x.snd.SndUna())
	}
	put('S', uint64(x.snd.SRTT()), uint64(x.snd.rtt.rto))
	if disordered < 100 || x.alg.rtos == 0 || x.alg.losses < 10 {
		t.Fatalf("scenario too tame: %d ACKs sampling from blocks out of order, %d RTOs, %d loss events",
			disordered, x.alg.rtos, x.alg.losses)
	}
	if got := h.Sum64(); got != recoveryGolden {
		t.Fatalf("recovery trace hash = %#x, want %#x (retransmits=%d, rtos=%d, srtt=%v)",
			got, uint64(recoveryGolden), x.snd.Info().TotalRetrans, x.alg.rtos, x.snd.SRTT())
	}
}

// scriptedSender is a fixed-window sender fed hand-written ACKs; sentAt
// records when each copy of each segment went out.
type scriptedSender struct {
	eng    *sim.Engine
	ep     *Endpoint
	sentAt map[int][]units.Time // by segment number
}

func newScriptedSender(segs int) *scriptedSender {
	h := &scriptedSender{eng: sim.New(1), sentAt: map[int][]units.Time{}}
	h.ep = New(h.eng, Config{FlowID: 1, CC: heldWindow(), Out: func(p *pkt.Packet) {
		seg := int(p.Seq / DefaultMSS)
		h.sentAt[seg] = append(h.sentAt[seg], p.SentAt)
	}})
	h.ep.SetAvailable(uint64(segs) * DefaultMSS)
	return h
}

// ackAt advances the clock to at and delivers an ACK for ackSeg segments
// that opens the peer's window to wndSegs segments.
func (h *scriptedSender) ackAt(at units.Duration, ackSeg, wndSegs int, sack ...pkt.Range) {
	h.eng.RunFor(at - units.Duration(h.eng.Now()))
	h.ep.HandleAck(&pkt.Packet{Flags: pkt.FlagACK, Ack: uint64(ackSeg) * DefaultMSS, Wnd: wndSegs * DefaultMSS, Sack: sack})
}

const ms = units.Millisecond

// TestLatestSackedTimeFallsWithCumulativeAck: the lost-retransmission rule
// compares against the latest send time among SACKed segments *still in the
// window*. Here a duplicate-SACK-shaped ACK both SACKs segment 0's second
// retransmission (sent at 30 ms) and acknowledges past it; what remains
// SACKed was sent at 0, so segment 3's retransmission at 20 ms is not
// overtaken by anything and must not be sent again. A running maximum
// would still read 30 ms and resend it.
func TestLatestSackedTimeFallsWithCumulativeAck(t *testing.T) {
	h := newScriptedSender(10)
	h.ackAt(10*ms, 0, 2, sackOf(7, 10)) // 0-6 lost; window for 0 and 1
	h.ackAt(20*ms, 0, 3, sackOf(1, 2))  // 1 arrived; window for 2 and 3
	h.ackAt(30*ms, 0, 2, sackOf(2, 3))  // 2 (sent at 20) overtook 0 (sent at 10): 0 goes again
	if got := h.sentAt[0]; len(got) != 3 || got[2] != units.Time(30*ms) {
		t.Fatalf("segment 0 sent at %v, want a second retransmission at 30ms", got)
	}
	h.ackAt(40*ms, 3, 2, sackOf(0, 1))
	if got := h.sentAt[3]; len(got) != 2 {
		t.Fatalf("segment 3 sent at %v: resent on the strength of a segment no longer in the window", got)
	}
	// The rule itself still works afterwards: 4 goes out at 40 ms, and its
	// SACK overtakes 3's retransmission of 20 ms.
	h.ackAt(50*ms, 3, 1, sackOf(4, 5))
	if got := h.sentAt[3]; len(got) != 3 {
		t.Fatalf("segment 3 sent at %v, want a second retransmission once 4's SACK overtook it", got)
	}
}

// TestLostRetransmissionRuleUsesLatestCopy: after an RTO has resent
// segment 0, a SACK for something sent between its two retransmissions
// says nothing about the second one.
func TestLostRetransmissionRuleUsesLatestCopy(t *testing.T) {
	h := newScriptedSender(10)
	h.ackAt(10*ms, 0, 1, sackOf(7, 10)) // 0-6 lost; window for 0 only
	h.ackAt(20*ms, 0, 2, sackOf(7, 10)) // window for 1
	h.eng.RunFor(280 * ms)              // RTO at 210 ms: 0 and 1 go again
	if len(h.sentAt[0]) != 3 || len(h.sentAt[1]) != 3 {
		t.Fatalf("after the RTO segment 0 sent at %v, segment 1 at %v; want three copies each", h.sentAt[0], h.sentAt[1])
	}
	copies := len(h.sentAt[0])
	h.ackAt(310*ms, 0, 2, sackOf(1, 2))
	if got := h.sentAt[0]; len(got) != copies {
		t.Fatalf("segment 0 sent at %v: resent because a SACK overtook a copy it had already replaced", got)
	}
}
