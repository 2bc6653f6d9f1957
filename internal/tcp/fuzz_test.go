package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"element/internal/cc"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/units"
)

// TestPropertySenderSurvivesArbitraryAcks throws randomized (possibly
// nonsensical) ACK/SACK sequences at a sender and checks the structural
// invariants: snd_una never regresses or passes snd_nxt, packets_out is
// never negative, the pipe estimate never exceeds outstanding bytes, the
// scoreboard agrees with the full scans after every ACK, and nothing
// panics.
func TestPropertySenderSurvivesArbitraryAcks(t *testing.T) {
	f := func(seed int64, script []uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New(seed)
		sent := 0
		ep := New(eng, Config{
			FlowID: 1,
			CC:     cc.MustNew(cc.KindCubic, DefaultMSS, rng),
			Out:    func(p *pkt.Packet) { sent++ },
		})
		ep.SetAvailable(1 << 30)
		prevUna := uint64(0)
		for _, op := range script {
			eng.RunFor(units.Duration(op%20) * units.Millisecond)
			ackBase := uint64(op) * 37 % (ep.SndNxt() + 3*DefaultMSS + 1)
			p := &pkt.Packet{Flags: pkt.FlagACK, Ack: ackBase, Wnd: int(op%1000)*1000 + 1}
			if op%3 == 0 {
				start := uint64(op) * 91 % (ep.SndNxt() + 1)
				end := start + uint64(op%7)*DefaultMSS
				p.Sack = append(p.Sack, pkt.Range{Start: start, End: end})
			}
			if op%17 == 0 {
				p.ECE = true
			}
			ep.HandleAck(p)

			if ep.SndUna() < prevUna {
				return false // cumulative ack regressed
			}
			prevUna = ep.SndUna()
			if ep.SndUna() > ep.SndNxt() {
				return false
			}
			if ep.packetsOut() < 0 {
				return false
			}
			// A mid-segment (unaligned) ACK leaves the partially-acked head
			// segment counted whole, so allow one MSS of slack.
			if ep.pipeBytes < 0 || ep.pipeBytes > int(ep.SndNxt()-ep.SndUna())+DefaultMSS {
				return false
			}
			checkScoreboard(t, ep)
		}
		ep.Close()
		eng.Shutdown()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReceiverSurvivesArbitrarySegments injects random (overlapping,
// duplicate, out-of-range) data segments and checks reassembly invariants.
func TestPropertyReceiverSurvivesArbitrarySegments(t *testing.T) {
	f := func(seed int64, script []uint32) bool {
		eng := sim.New(seed)
		var reported uint64
		ep := New(eng, Config{
			FlowID:       1,
			Out:          func(p *pkt.Packet) {},
			OnReceiveNew: func(seq uint64, n int) { reported += uint64(n) },
		})
		for _, op := range script {
			eng.RunFor(units.Duration(op%10) * units.Millisecond)
			seq := uint64(op) * 53 % (64 * DefaultMSS)
			n := int(op%3)*700 + 100
			ep.HandleData(&pkt.Packet{FlowID: 1, Seq: seq, PayloadLen: n})

			// Invariants: readable ≤ rcvNxt; ooo intervals sorted, disjoint,
			// strictly above rcvNxt; reported bytes ≥ rcvNxt (every
			// contiguous byte was reported exactly once — uniqueness is
			// checked elsewhere; here we check coverage).
			if uint64(ep.ReadableBytes()) > ep.RcvNxt() {
				return false
			}
			prevEnd := ep.RcvNxt()
			for _, iv := range ep.ooo {
				if iv.start < prevEnd || iv.end <= iv.start {
					return false
				}
				prevEnd = iv.end
			}
			if reported < ep.RcvNxt() {
				return false
			}
			checkScoreboard(t, ep)
		}
		ep.Close()
		eng.Shutdown()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzScoreboard drives one endpoint, as sender and as receiver at once,
// with a byte script of sends, ACKs carrying 0-4 arbitrary SACK blocks,
// clock advances long enough for the RTO and pacing timers to fire, and
// out-of-order or overlapping data, checking the scoreboard against the
// full scans after every step. Offsets are in quarter segments so blocks
// and ACKs land inside segments as well as on their edges.
func FuzzScoreboard(f *testing.F) {
	const quarter = DefaultMSS / 4
	// The hand-written recovery tests, as scripts: a SACK past the FACK
	// threshold, repeated, then the hole filled (TestSenderSACKFastRetransmit);
	// three bare duplicate ACKs (TestSenderLegacyDupAckRetransmit); silence
	// until the RTO backs off twice (TestSenderRTOBackoff); the blocks of one
	// ACK out of order and overlapping; a hole filled out of order at the
	// receiver; a duplicate-SACK below the cumulative ACK.
	f.Add([]byte{0, 0, 200, 2, 1, 1, 0, 1, 4, 28, 1, 0, 1, 4, 28, 1, 32, 0})
	f.Add([]byte{0, 0, 3, 2, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 0, 1, 2, 120, 2, 250, 2, 250})
	f.Add([]byte{1, 0, 100, 2, 1, 1, 0, 3, 24, 4, 8, 8, 12, 6, 2, 1, 1, 0, 2, 40, 4, 6, 10})
	f.Add([]byte{0, 3, 72, 14, 3, 80, 14, 3, 68, 28, 3, 64, 14, 3, 60, 30})
	f.Add([]byte{0, 0, 10, 2, 1, 1, 0, 1, 28, 12, 2, 1, 1, 12, 1, 0, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		kind := cc.KindCubic
		if next()%2 == 1 {
			kind = cc.KindBBR // paced: exercises the pace timer
		}
		eng := sim.New(1)
		ep := New(eng, Config{FlowID: 1, CC: cc.MustNew(kind, DefaultMSS, eng.Rand()), Out: func(*pkt.Packet) {}})
		var avail, prevUna uint64
		for len(script) > 0 {
			switch next() % 4 {
			case 0: // the application writes; odd sizes leave short segments
				avail += uint64(next())*quarter + 1
				ep.SetAvailable(avail)
			case 1: // an ACK relative to snd_una, with up to four blocks
				p := &pkt.Packet{Flags: pkt.FlagACK, Ack: ep.SndUna() + uint64(next())*quarter, Wnd: 1 << 20}
				for n := next() % 5; n > 0; n-- {
					start := ep.SndUna() + uint64(next())*quarter
					p.Sack = append(p.Sack, pkt.Range{Start: start, End: start + uint64(next())*quarter})
				}
				ep.HandleAck(p)
			case 2: // time passes: up to 2.5 s, enough for a backed-off RTO
				eng.RunFor(units.Duration(next()) * 10 * units.Millisecond)
			case 3: // data up to 64 quarters above rcv_nxt or 64 below it
				seq := int64(ep.RcvNxt()) + int64(next()-64)*quarter
				if seq < 0 {
					seq = 0
				}
				ep.HandleData(&pkt.Packet{FlowID: 1, Seq: uint64(seq), PayloadLen: next()*100 + 1})
				ep.Consume(ep.ReadableBytes())
			}
			checkScoreboard(t, ep)
			if ep.SndUna() < prevUna || ep.SndUna() > ep.SndNxt() {
				t.Fatalf("snd_una %d after %d, snd_nxt %d", ep.SndUna(), prevUna, ep.SndNxt())
			}
			prevUna = ep.SndUna()
		}
		ep.Close()
		eng.Shutdown()
	})
}
