package waterfall_test

import (
	"testing"

	"element/internal/cc"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/sockbuf"
	"element/internal/tcp"
	"element/internal/trace"
	"element/internal/units"
	"element/internal/waterfall"
)

// TestRTORetransmitAttribution pins down the paper's retransmission
// convention on a hand-wired connection: the first copy of the LAST
// outstanding segment is dropped, so no duplicate ACKs can trigger fast
// retransmit and the sender must take an RTO. The ground-truth network
// delay for those bytes must then be measured from the FIRST transmission
// (recovery wait included), and the waterfall must tell the same story
// through its retransmit-generation spans: retx+queue+wire exactly equal
// the trace's network-delay sample.
func TestRTORetransmitAttribution(t *testing.T) {
	eng := sim.New(3)
	wf := waterfall.New()
	wf.SetClock(eng.Now)
	rec := wf.NewFlow()
	wf.Bind(1, rec)
	col := trace.Of(rec)
	sh, rh := col.SenderHooks(), col.ReceiverHooks()

	const (
		mss   = tcp.DefaultMSS
		nSegs = 4
		total = nSegs * mss
	)
	owd := 25 * units.Millisecond
	var snd, rcv *tcp.Endpoint
	dropped := 0

	snd = tcp.New(eng, tcp.Config{
		FlowID: 1,
		MSS:    mss,
		CC:     cc.MustNew(cc.KindReno, mss, eng.Rand()),
		Out: func(p *pkt.Packet) {
			if p.PayloadLen > 0 && p.Seq == uint64((nSegs-1)*mss) && p.Gen == 0 {
				dropped++ // lose the first copy of the last segment
				return
			}
			eng.Schedule(owd, func() {
				if p.PayloadLen > 0 && rh.PacketRecv != nil {
					rh.PacketRecv(p)
				}
				rcv.Handle(p)
			})
		},
		OnTransmit: sh.TCPTransmit,
	})
	rcv = tcp.New(eng, tcp.Config{
		FlowID: 1,
		MSS:    mss,
		RcvBuf: sockbuf.NewReceiveBuffer(0),
		Out: func(p *pkt.Packet) {
			eng.Schedule(owd, func() { snd.Handle(p) })
		},
		OnReceiveNew: rh.TCPReceive,
		OnInOrder:    rh.TCPInOrder,
		OnReadable: func() {
			if n := rcv.ReadableBytes(); n > 0 {
				cum := rcv.Consume(n)
				if rh.AppRead != nil {
					rh.AppRead(cum, n)
				}
			}
		},
	})

	// One app write of the whole burst at t=0; Reno's initial window covers
	// all four segments, so every first transmission also happens at t=0.
	sh.AppWrite(uint64(total), total)
	snd.SetAvailable(uint64(total))
	eng.RunUntil(units.Time(10 * units.Second))
	eng.Shutdown()

	if dropped != 1 {
		t.Fatalf("dropped %d copies of the last segment, want exactly 1", dropped)
	}

	// Ground truth: four network-delay samples (one per segment), the last
	// one measured from the FIRST transmission at t=0 — so its delay equals
	// its arrival time and includes the whole RTO wait.
	nd := col.NetworkDelay()
	if len(nd) != nSegs {
		t.Fatalf("network delay samples = %d, want %d", len(nd), nSegs)
	}
	for _, s := range nd[:nSegs-1] {
		if s.Delay != units.Duration(owd) {
			t.Fatalf("undropped segment network delay %v, want %v", s.Delay, owd)
		}
	}
	last := nd[nSegs-1]
	if last.Delay != last.At.Sub(0) {
		t.Fatalf("retransmitted segment delay %v not measured from first transmit at t=0 (arrival %v)",
			last.Delay, last.At)
	}
	if last.Delay < 100*units.Millisecond {
		t.Fatalf("retransmitted segment delay %v too small to contain an RTO", last.Delay)
	}

	// Waterfall: the retransmitted range carries generation 1, its retx span
	// starts at the first transmission (t=0), and retx+queue+wire together
	// equal the ground-truth network sample exactly.
	var netSum units.Duration
	var sawRetxSpan bool
	gen1Start := uint64((nSegs - 1) * mss)
	for _, sp := range rec.Spans() {
		if sp.Start != gen1Start {
			if sp.Gen != 0 {
				t.Fatalf("span %+v: unexpected retransmit generation", sp)
			}
			continue
		}
		if sp.Gen != 1 {
			t.Fatalf("span %+v: generation = %d, want 1", sp, sp.Gen)
		}
		switch sp.Stage {
		case waterfall.StageRetx:
			sawRetxSpan = true
			if sp.From != 0 {
				t.Fatalf("retx span starts at %v, want the first transmission at t=0", sp.From)
			}
			if d := sp.To.Sub(sp.From); d < 100*units.Millisecond {
				t.Fatalf("retx span %v too short to contain the RTO wait", d)
			}
			netSum += sp.To.Sub(sp.From)
		case waterfall.StageQueue, waterfall.StageWire:
			netSum += sp.To.Sub(sp.From)
		}
	}
	if !sawRetxSpan {
		t.Fatal("no retx-stage span for the retransmitted range")
	}
	if netSum != last.Delay {
		t.Fatalf("waterfall retx+queue+wire = %v, ground-truth network delay = %v", netSum, last.Delay)
	}

	// The aggregate must remain internally consistent under the RTO.
	b := rec.Breakdown()
	if b.Residual > 1e-9 {
		t.Fatalf("stage-sum residual %g after RTO", b.Residual)
	}
	if b.Bytes != total {
		t.Fatalf("finalized %d bytes, want %d", b.Bytes, total)
	}
}
