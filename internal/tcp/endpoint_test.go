package tcp

import (
	"testing"
	"testing/quick"

	"element/internal/cc"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/units"
)

// senderHarness wires an Endpoint to a captured output queue.
type senderHarness struct {
	eng *sim.Engine
	ep  *Endpoint
	out []*pkt.Packet
}

func newSenderHarness(t *testing.T, kind cc.Kind) *senderHarness {
	t.Helper()
	h := &senderHarness{eng: sim.New(1)}
	h.ep = New(h.eng, Config{
		FlowID: 1,
		CC:     cc.MustNew(kind, DefaultMSS, h.eng.Rand()),
		Out:    func(p *pkt.Packet) { h.out = append(h.out, p) },
	})
	return h
}

// ackUpTo delivers a cumulative ACK to the sender.
func (h *senderHarness) ackUpTo(seq uint64) {
	h.ep.HandleAck(&pkt.Packet{Flags: pkt.FlagACK, Ack: seq, Wnd: 1 << 20})
}

func TestSenderInitialWindowBurst(t *testing.T) {
	h := newSenderHarness(t, cc.KindReno)
	h.ep.SetAvailable(1 << 20) // transmissions happen synchronously
	// Initial cwnd is 10 segments.
	if len(h.out) != 10 {
		t.Fatalf("sent %d segments, want 10 (initial window)", len(h.out))
	}
	for i, p := range h.out {
		if p.Seq != uint64(i*DefaultMSS) || p.PayloadLen != DefaultMSS {
			t.Fatalf("segment %d: seq=%d len=%d", i, p.Seq, p.PayloadLen)
		}
	}
	if h.ep.Info().Unacked != 10 {
		t.Fatalf("Unacked = %d, want 10", h.ep.Info().Unacked)
	}
}

func TestSenderAppLimited(t *testing.T) {
	h := newSenderHarness(t, cc.KindReno)
	h.ep.SetAvailable(2000) // less than two full segments
	if len(h.out) != 2 {
		t.Fatalf("sent %d segments, want 2", len(h.out))
	}
	if h.out[0].PayloadLen != DefaultMSS || h.out[1].PayloadLen != 2000-DefaultMSS {
		t.Fatalf("segment sizes %d, %d", h.out[0].PayloadLen, h.out[1].PayloadLen)
	}
}

func TestSenderAckAdvancesAndGrows(t *testing.T) {
	h := newSenderHarness(t, cc.KindReno)
	h.ep.SetAvailable(1 << 20)
	sentBefore := len(h.out)
	h.eng.RunFor(50 * units.Millisecond)
	h.ackUpTo(uint64(3 * DefaultMSS))
	if h.ep.SndUna() != uint64(3*DefaultMSS) {
		t.Fatalf("SndUna = %d", h.ep.SndUna())
	}
	// Slow start: 3 segments acked → cwnd grows by 3 → 3 freed + 3 extra.
	if got := len(h.out) - sentBefore; got != 6 {
		t.Fatalf("sent %d more segments, want 6", got)
	}
	if h.ep.Info().BytesAcked != uint64(3*DefaultMSS) {
		t.Fatalf("BytesAcked = %d", h.ep.Info().BytesAcked)
	}
}

func TestSenderSACKFastRetransmit(t *testing.T) {
	h := newSenderHarness(t, cc.KindReno)
	h.ep.SetAvailable(1 << 20)
	h.eng.RunFor(10 * units.Millisecond)
	base := len(h.out)
	// The receiver got segments 1..7 but not 0: a SACK block well past the
	// FACK threshold must mark segment 0 lost and retransmit it (the pipe
	// is drained enough by the SACKed bytes for cwnd/2 to admit it).
	h.ep.HandleAck(&pkt.Packet{
		Flags: pkt.FlagACK, Ack: 0, Wnd: 1 << 20,
		Sack: []pkt.Range{{Start: DefaultMSS, End: 8 * DefaultMSS}},
	})
	var rtx *pkt.Packet
	for _, p := range h.out[base:] {
		if p.Seq == 0 {
			rtx = p
		}
	}
	if rtx == nil {
		t.Fatalf("segment 0 not retransmitted; sent %d packets", len(h.out)-base)
	}
	if h.ep.Info().TotalRetrans != 1 {
		t.Fatalf("TotalRetrans = %d", h.ep.Info().TotalRetrans)
	}
	// The same SACK again must not retransmit segment 0 twice.
	h.ep.HandleAck(&pkt.Packet{
		Flags: pkt.FlagACK, Ack: 0, Wnd: 1 << 20,
		Sack: []pkt.Range{{Start: DefaultMSS, End: 8 * DefaultMSS}},
	})
	if h.ep.Info().TotalRetrans != 1 {
		t.Fatal("retransmitted again on repeated SACK")
	}
	// Filling the hole exits recovery and resumes new data.
	sentBefore := len(h.out)
	h.ackUpTo(8 * DefaultMSS)
	if len(h.out) <= sentBefore {
		t.Fatal("no new data after recovery")
	}
}

func TestSenderLegacyDupAckRetransmit(t *testing.T) {
	// A SACK-less peer: three pure duplicate ACKs mark the first segment
	// lost; the retransmission goes out once the pipe allows.
	h := newSenderHarness(t, cc.KindReno)
	h.ep.SetAvailable(3 * DefaultMSS) // small flight so pipe < cwnd/2
	h.eng.RunFor(10 * units.Millisecond)
	base := len(h.out)
	for i := 0; i < 3; i++ {
		h.ackUpTo(0)
	}
	if len(h.out) != base+1 || h.out[base].Seq != 0 {
		t.Fatalf("expected one retransmission of seq 0, got %d new packets", len(h.out)-base)
	}
}

func TestSenderRTO(t *testing.T) {
	h := newSenderHarness(t, cc.KindReno)
	h.ep.SetAvailable(10 * DefaultMSS)
	h.eng.RunFor(10 * units.Millisecond)
	base := len(h.out)
	// No ACKs at all: the RTO (initial 1s) must fire and retransmit seq 0.
	h.eng.RunFor(2 * units.Second)
	if len(h.out) <= base {
		t.Fatal("RTO did not retransmit")
	}
	if h.out[base].Seq != 0 {
		t.Fatalf("RTO retransmitted seq %d, want 0", h.out[base].Seq)
	}
	if h.ep.Info().SndCwnd != 1 {
		t.Fatalf("cwnd after RTO = %d segments, want 1", h.ep.Info().SndCwnd)
	}
}

func TestSenderRTOBackoff(t *testing.T) {
	h := newSenderHarness(t, cc.KindReno)
	h.ep.SetAvailable(DefaultMSS)
	var times []units.Time
	h.eng.RunFor(10 * units.Millisecond)
	for _, p := range h.out {
		_ = p
	}
	// Record retransmission times over 10 seconds of silence.
	h.eng.RunFor(10 * units.Second)
	for _, p := range h.out[1:] {
		times = append(times, p.SentAt)
	}
	if len(times) < 3 {
		t.Fatalf("only %d retransmissions in 10s", len(times))
	}
	gap1 := times[1].Sub(times[0])
	gap2 := times[2].Sub(times[1])
	if gap2 < gap1*2-10*units.Millisecond {
		t.Fatalf("RTO not backing off: gaps %v then %v", gap1, gap2)
	}
}

func TestSenderRwndLimits(t *testing.T) {
	h := newSenderHarness(t, cc.KindReno)
	h.ep.SetAvailable(1 << 20)
	h.eng.RunFor(time10ms())
	// Ack everything but clamp the advertised window to 2 segments.
	h.ep.HandleAck(&pkt.Packet{Flags: pkt.FlagACK, Ack: uint64(10 * DefaultMSS), Wnd: 2 * DefaultMSS})
	inFlight := int(h.ep.SndNxt() - h.ep.SndUna())
	if inFlight > 2*DefaultMSS {
		t.Fatalf("in flight %d bytes exceeds rwnd %d", inFlight, 2*DefaultMSS)
	}
}

func time10ms() units.Duration { return 10 * units.Millisecond }

// receiverHarness wires a receiving Endpoint to captured ACKs.
type receiverHarness struct {
	eng  *sim.Engine
	ep   *Endpoint
	acks []*pkt.Packet
	got  []interval
}

func newReceiverHarness(t *testing.T) *receiverHarness {
	t.Helper()
	h := &receiverHarness{eng: sim.New(1)}
	h.ep = New(h.eng, Config{
		FlowID: 1,
		Out:    func(p *pkt.Packet) { h.acks = append(h.acks, p) },
		OnReceiveNew: func(seq uint64, n int) {
			h.got = append(h.got, interval{seq, seq + uint64(n)})
		},
	})
	return h
}

func (h *receiverHarness) data(seq uint64, n int) {
	h.ep.HandleData(&pkt.Packet{FlowID: 1, Seq: seq, PayloadLen: n})
}

func TestReceiverInOrder(t *testing.T) {
	h := newReceiverHarness(t)
	h.data(0, 1000)
	h.data(1000, 1000)
	if h.ep.RcvNxt() != 2000 {
		t.Fatalf("RcvNxt = %d", h.ep.RcvNxt())
	}
	if h.ep.ReadableBytes() != 2000 {
		t.Fatalf("Readable = %d", h.ep.ReadableBytes())
	}
	// Delayed-ACK: second segment triggers the every-2 ACK.
	if len(h.acks) != 1 || h.acks[0].Ack != 2000 {
		t.Fatalf("acks = %v", h.acks)
	}
}

func TestReceiverDelayedAckTimer(t *testing.T) {
	h := newReceiverHarness(t)
	h.data(0, 1000)
	if len(h.acks) != 0 {
		t.Fatal("acked immediately; want delayed")
	}
	h.eng.RunFor(50 * units.Millisecond)
	if len(h.acks) != 1 || h.acks[0].Ack != 1000 {
		t.Fatalf("delayed ack not sent: %v", h.acks)
	}
}

func TestReceiverOutOfOrder(t *testing.T) {
	h := newReceiverHarness(t)
	h.data(0, 1000)
	h.data(2000, 1000) // hole at [1000,2000)
	// The OOO arrival must produce an immediate duplicate ACK at 1000.
	if len(h.acks) == 0 || h.acks[len(h.acks)-1].Ack != 1000 {
		t.Fatalf("no dupack: %v", h.acks)
	}
	if h.ep.ReadableBytes() != 1000 {
		t.Fatalf("Readable = %d, want 1000 (hole)", h.ep.ReadableBytes())
	}
	h.data(1000, 1000) // fill the hole
	if h.ep.RcvNxt() != 3000 {
		t.Fatalf("RcvNxt after fill = %d, want 3000", h.ep.RcvNxt())
	}
	if h.ep.ReadableBytes() != 3000 {
		t.Fatalf("Readable = %d, want 3000", h.ep.ReadableBytes())
	}
	// Every byte reported exactly once.
	total := 0
	for _, iv := range h.got {
		total += int(iv.end - iv.start)
	}
	if total != 3000 {
		t.Fatalf("reported %d new bytes, want 3000 (%v)", total, h.got)
	}
}

func TestReceiverDuplicateSuppressed(t *testing.T) {
	h := newReceiverHarness(t)
	h.data(0, 1000)
	h.data(0, 1000) // spurious retransmission
	total := 0
	for _, iv := range h.got {
		total += int(iv.end - iv.start)
	}
	if total != 1000 {
		t.Fatalf("reported %d bytes, want 1000", total)
	}
	if h.ep.Info().SegsIn != 2 {
		t.Fatalf("SegsIn = %d, want 2 (duplicates still count)", h.ep.Info().SegsIn)
	}
}

func TestReceiverConsume(t *testing.T) {
	h := newReceiverHarness(t)
	h.data(0, 3000)
	if got := h.ep.Consume(1200); got != 1200 {
		t.Fatalf("Consume returned %d", got)
	}
	if h.ep.ReadableBytes() != 1800 {
		t.Fatalf("Readable = %d", h.ep.ReadableBytes())
	}
	if got := h.ep.Consume(1 << 20); got != 3000 {
		t.Fatalf("Consume clamped to %d, want 3000", got)
	}
}

func TestReceiverECNEcho(t *testing.T) {
	h := newReceiverHarness(t)
	h.ep.HandleData(&pkt.Packet{FlowID: 1, Seq: 0, PayloadLen: 1000, CE: true})
	h.ep.HandleData(&pkt.Packet{FlowID: 1, Seq: 1000, PayloadLen: 1000})
	if len(h.acks) != 1 || !h.acks[0].ECE {
		t.Fatalf("CE not echoed: %+v", h.acks)
	}
	h.data(2000, 1000)
	h.data(3000, 1000)
	if h.acks[1].ECE {
		t.Fatal("ECE latched beyond one ACK")
	}
}

// Property: for any arrival permutation of a contiguous stream, the
// receiver ends with RcvNxt at the stream end, every byte reported exactly
// once, and no interval overlap.
func TestPropertyReceiverReassembly(t *testing.T) {
	f := func(perm []uint8) bool {
		const segs = 20
		const segLen = 500
		order := make([]int, segs)
		for i := range order {
			order[i] = i
		}
		// Fisher-Yates keyed by the random input.
		for i := len(order) - 1; i > 0; i-- {
			j := 0
			if len(perm) > 0 {
				j = int(perm[i%len(perm)]) % (i + 1)
			}
			order[i], order[j] = order[j], order[i]
		}
		h := &receiverHarness{eng: sim.New(1)}
		h.ep = New(h.eng, Config{
			FlowID: 1,
			Out:    func(p *pkt.Packet) {},
			OnReceiveNew: func(seq uint64, n int) {
				h.got = append(h.got, interval{seq, seq + uint64(n)})
			},
		})
		for _, idx := range order {
			h.data(uint64(idx*segLen), segLen)
			// Duplicate delivery of a random earlier segment.
			h.data(uint64(order[0]*segLen), segLen)
		}
		if h.ep.RcvNxt() != segs*segLen {
			return false
		}
		seen := make([]bool, segs*segLen)
		for _, iv := range h.got {
			for b := iv.start; b < iv.end; b++ {
				if seen[b] {
					return false // double report
				}
				seen[b] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false // missing byte
			}
		}
		return h.ep.ReadableBytes() == segs*segLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRTORearmOnAckZeroAlloc pins the hot timer path: an ACK that advances
// snd_una stops the retransmission timer and arms a new one, and (with the
// peer's window closed so no new segment goes out) the whole HandleAck
// allocates nothing. The clock advances between ACKs so stopped timers
// drain from the engine's queue as they would in a run.
func TestRTORearmOnAckZeroAlloc(t *testing.T) {
	h := newSenderHarness(t, cc.KindReno)
	h.ep.SetAvailable(1 << 20)
	ack := &pkt.Packet{Flags: pkt.FlagACK, Wnd: 1}
	step := func() {
		h.eng.RunFor(10 * units.Millisecond)
		ack.Ack++
		h.ep.HandleAck(ack)
	}
	for i := 0; i < 300; i++ { // past the initial RTO: the queue is in steady state
		step()
	}
	sent := len(h.out)
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("HandleAck re-arming the RTO allocates %v, want 0", n)
	}
	if !h.ep.rtoTimer.Active() || len(h.out) != sent {
		t.Fatalf("RTO armed = %v, segments sent during the run = %d (want armed, 0)",
			h.ep.rtoTimer.Active(), len(h.out)-sent)
	}
}
