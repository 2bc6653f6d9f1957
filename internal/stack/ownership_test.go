package stack

import (
	"sort"
	"testing"

	"element/internal/aqm"
	"element/internal/faults"
	"element/internal/netem"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/units"
)

// The packet ownership rule (DESIGN §9), site by site: every pooled packet
// is released exactly once. A second release panics inside Release; a
// missing one leaves the pool's outstanding count above zero once the
// engine is dry.

const ownMSS = 1460

// dataPkt draws a data packet for flow from pl.
func dataPkt(pl *pkt.Pool, flow int, seq uint64) *pkt.Packet {
	p := pl.Get()
	p.FlowID = flow
	p.Seq = seq
	p.PayloadLen = ownMSS
	p.HeaderLen = pkt.DefaultHeaderLen
	return p
}

// ackPkt draws a pure ACK for flow from pl.
func ackPkt(pl *pkt.Pool, flow int, ack uint64) *pkt.Packet {
	p := pl.Get()
	p.FlowID = flow
	p.Flags = pkt.FlagACK
	p.Ack = ack
	p.HeaderLen = pkt.DefaultHeaderLen
	return p
}

// intact fails the test if a borrowed or delivered data packet no longer
// reads as dataPkt built it — which is how a packet released too early
// shows up, at once under -tags pktpoison and on reuse otherwise.
func intact(t *testing.T, where string, p *pkt.Packet, flow int) {
	t.Helper()
	if p.FlowID != flow || p.PayloadLen != ownMSS || p.Seq%ownMSS != 0 {
		t.Errorf("%s: packet reads %v (len %d), want flow %d len %d", where, p, p.PayloadLen, flow, ownMSS)
	}
}

// ownLink is a slow link whose sink is a terminal consumer: it counts,
// checks and releases.
type ownLink struct {
	eng       *sim.Engine
	pl        *pkt.Pool
	link      *netem.Link
	delivered int
	marked    int
}

func newOwnLink(t *testing.T, d aqm.Discipline) *ownLink {
	o := &ownLink{eng: sim.New(1), pl: pkt.NewPool()}
	o.link = netem.NewLink(o.eng, netem.LinkConfig{Rate: 1 * units.Mbps, Delay: units.Millisecond, Discipline: d},
		func(p *pkt.Packet) {
			intact(t, "sink", p, p.FlowID)
			o.delivered++
			if p.CE {
				o.marked++
			}
			p.Release()
		})
	return o
}

// burst sends n data packets of flow back to back.
func (o *ownLink) burst(flow, n int) {
	for i := 0; i < n; i++ {
		o.link.Send(dataPkt(o.pl, flow, uint64(i)*ownMSS))
	}
}

// overdrive offers the 1 Mbps link twice its rate for 5 s, one flow.
func (o *ownLink) overdrive(ect bool) (sent int) {
	var tick func()
	tick = func() {
		if o.eng.Now() >= units.Time(5*units.Second) {
			return
		}
		p := dataPkt(o.pl, 1, uint64(sent)*ownMSS)
		p.ECT = ect
		o.link.Send(p)
		sent++
		o.eng.Schedule(6*units.Millisecond, tick)
	}
	tick()
	o.eng.Run()
	return sent
}

func TestReleasePoints(t *testing.T) {
	// checkTap borrows every packet offered to the queue, accepted or not.
	checkTap := func(t *testing.T, rejected *int) aqm.TapHooks {
		return aqm.TapHooks{Enqueued: func(p *pkt.Packet, _ units.Time, ok bool) {
			intact(t, "tap", p, p.FlowID)
			if !ok {
				*rejected++
			}
		}}
	}
	tests := []struct {
		name string
		run  func(t *testing.T) *pkt.Pool
	}{
		{"link tail drop", func(t *testing.T) *pkt.Pool {
			o := newOwnLink(t, aqm.NewFIFO(aqm.Config{LimitPackets: 1}))
			rejected := 0
			o.link.Tap(checkTap(t, &rejected), nil)
			o.burst(1, 3) // one on the wire, one queued, one dropped
			if got := o.pl.Outstanding(); got != 2 {
				t.Errorf("outstanding after a synchronous tail drop = %d, want 2", got)
			}
			o.eng.Run()
			if st := o.link.QueueStats(); st.TailDrops != 1 || rejected != 1 || o.delivered != 2 {
				t.Errorf("tail drops %d, tap rejections %d, delivered %d; want 1, 1, 2", st.TailDrops, rejected, o.delivered)
			}
			return o.pl
		}},
		{"PIE enqueue drop", func(t *testing.T) *pkt.Pool {
			o := newOwnLink(t, aqm.NewPIE(aqm.Config{}, nil))
			rejected := 0
			o.link.Tap(checkTap(t, &rejected), nil)
			sent := o.overdrive(false)
			st := o.link.QueueStats()
			if st.AQMDrops == 0 || st.AQMDrops+st.TailDrops != rejected || o.delivered != sent-rejected {
				t.Errorf("sent %d, AQM drops %d, tail drops %d, tap rejections %d, delivered %d",
					sent, st.AQMDrops, st.TailDrops, rejected, o.delivered)
			}
			return o.pl
		}},
		{"CoDel head drop", func(t *testing.T) *pkt.Pool {
			o := newOwnLink(t, aqm.NewCoDel(aqm.Config{}))
			sent := o.overdrive(false)
			if st := o.link.QueueStats(); st.AQMDrops == 0 || o.delivered != sent-st.AQMDrops {
				t.Errorf("sent %d, AQM drops %d, delivered %d", sent, st.AQMDrops, o.delivered)
			}
			return o.pl
		}},
		{"FQ-CoDel head drop", func(t *testing.T) *pkt.Pool {
			o := newOwnLink(t, aqm.NewFQCoDel(aqm.Config{}))
			sent := o.overdrive(false)
			if st := o.link.QueueStats(); st.AQMDrops == 0 || o.delivered != sent-st.AQMDrops {
				t.Errorf("sent %d, AQM drops %d, delivered %d", sent, st.AQMDrops, o.delivered)
			}
			return o.pl
		}},
		{"FQ-CoDel overflow drops another flow's head", func(t *testing.T) *pkt.Pool {
			o := newOwnLink(t, aqm.NewFQCoDel(aqm.Config{LimitPackets: 4}))
			o.burst(1, 5) // one on the wire, four fill the queue
			o.link.Send(dataPkt(o.pl, 2, 0))
			// The victim (flow 1's head) is gone, the offered packet is in.
			if got := o.pl.Outstanding(); got != 5 {
				t.Errorf("outstanding after the overflow drop = %d, want 5", got)
			}
			if st := o.link.QueueStats(); st.AQMDrops != 1 || st.TailDrops != 0 {
				t.Errorf("AQM drops %d, tail drops %d; want 1, 0", st.AQMDrops, st.TailDrops)
			}
			o.eng.Run()
			if o.delivered != 5 {
				t.Errorf("delivered %d, want 5", o.delivered)
			}
			return o.pl
		}},
		{"CoDel ECN mark keeps the packet", func(t *testing.T) *pkt.Pool {
			o := newOwnLink(t, aqm.NewCoDel(aqm.Config{ECN: true}))
			sent := o.overdrive(true)
			st := o.link.QueueStats()
			if st.ECNMarks == 0 || st.AQMDrops != 0 || o.marked != st.ECNMarks || o.delivered != sent {
				t.Errorf("sent %d, marks %d (seen %d), AQM drops %d, delivered %d",
					sent, st.ECNMarks, o.marked, st.AQMDrops, o.delivered)
			}
			return o.pl
		}},
		{"random loss", func(t *testing.T) *pkt.Pool {
			o := newOwnLink(t, nil)
			o.link.SetLossRate(1)
			o.burst(1, 3)
			o.eng.Run()
			if o.link.Stats().Lost != 3 || o.delivered != 0 {
				t.Errorf("lost %d, delivered %d; want 3, 0", o.link.Stats().Lost, o.delivered)
			}
			return o.pl
		}},
		{"random loss with a lost tap", func(t *testing.T) *pkt.Pool {
			o := newOwnLink(t, nil)
			o.link.SetLossRate(1)
			seen := 0
			o.link.Tap(aqm.TapHooks{}, func(p *pkt.Packet) {
				intact(t, "lost tap", p, 1)
				seen++
			})
			o.burst(1, 3)
			o.eng.Run()
			if seen != 3 || o.delivered != 0 {
				t.Errorf("lost tap saw %d, delivered %d; want 3, 0", seen, o.delivered)
			}
			return o.pl
		}},
		{"delivery to an unregistered flow", func(t *testing.T) *pkt.Pool {
			eng, n := testbed(1, 10*units.Mbps, 10*units.Millisecond, nil)
			n.Path().SendAtoB(dataPkt(n.Pool(), 99, 0))
			n.Path().SendBtoA(ackPkt(n.Pool(), 99, 0))
			eng.Run()
			if got := n.Path().Forward.Stats().Delivered + n.Path().Reverse.Stats().Delivered; got != 2 {
				t.Errorf("delivered %d, want 2", got)
			}
			return n.Pool()
		}},
		{"chaos ACK loss", func(t *testing.T) *pkt.Pool {
			eng, n := testbed(1, 10*units.Mbps, 10*units.Millisecond, nil)
			inj := faults.New(eng, faults.Profile{Path: faults.PathFaults{AckLossProb: 1}}, 1)
			inj.ApplyPath(n.Path())
			n.RegisterA(7, func(*pkt.Packet) { t.Error("a dropped ACK reached its handler") })
			for i := 0; i < 3; i++ {
				n.Path().SendBtoA(ackPkt(n.Pool(), 7, uint64(i)))
			}
			eng.Run()
			if got := inj.Counts().AcksDropped; got != 3 {
				t.Errorf("ACKs dropped %d, want 3", got)
			}
			return n.Pool()
		}},
		{"chaos ACK-compression flush", func(t *testing.T) *pkt.Pool {
			eng, n := testbed(1, 10*units.Mbps, 10*units.Millisecond, nil)
			inj := faults.New(eng, faults.Profile{Path: faults.PathFaults{AckCompress: 20 * units.Millisecond}}, 1)
			inj.ApplyPath(n.Path())
			var acks []uint64
			n.RegisterA(7, func(p *pkt.Packet) { acks = append(acks, p.Ack) })
			for i := 0; i < 3; i++ {
				n.Path().SendBtoA(ackPkt(n.Pool(), 7, uint64(i+1)))
			}
			eng.Run()
			if inj.Counts().AcksHeld != 3 || len(acks) != 3 || acks[0] != 1 || acks[2] != 3 {
				t.Errorf("held %d, handler saw ACKs %v; want 3 and [1 2 3]", inj.Counts().AcksHeld, acks)
			}
			return n.Pool()
		}},
		{"chaos reorder then deliver", func(t *testing.T) *pkt.Pool {
			eng, n := testbed(1, 10*units.Mbps, 10*units.Millisecond, nil)
			inj := faults.New(eng, faults.Profile{Path: faults.PathFaults{
				ReorderProb: 1, ReorderDelay: 30 * units.Millisecond}}, 1)
			inj.ApplyPath(n.Path())
			seen := 0
			n.RegisterB(7, func(p *pkt.Packet) {
				intact(t, "handler", p, 7)
				seen++
			})
			for i := 0; i < 3; i++ {
				n.Path().SendAtoB(dataPkt(n.Pool(), 7, uint64(i)*ownMSS))
			}
			// Past the link (5 ms + serialization), inside the hold: the
			// reorder closures own all three.
			eng.RunUntil(units.Time(20 * units.Millisecond))
			if got := n.Pool().Outstanding(); got != 3 || seen != 0 {
				t.Errorf("mid-hold: outstanding %d, delivered %d; want 3, 0", got, seen)
			}
			eng.Run()
			if inj.Counts().Reordered != 3 || seen != 3 {
				t.Errorf("reordered %d, delivered %d; want 3, 3", inj.Counts().Reordered, seen)
			}
			return n.Pool()
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t).Outstanding(); got != 0 {
				t.Errorf("outstanding packets once the engine is dry = %d, want 0", got)
			}
		})
	}
}

// chaosTransfer runs a whole bulk transfer for every discipline × fault
// profile pair, one subtest each, and calls done once the transfer is
// complete and the connection idle. tap (optional) observes the forward
// link's queue.
func chaosTransfer(t *testing.T, tap func(t *testing.T) aqm.TapHooks, done func(t *testing.T, eng *sim.Engine, n *Net, c *Conn)) {
	profiles := make([]string, 0, len(faults.Profiles))
	for name := range faults.Profiles {
		profiles = append(profiles, name)
	}
	sort.Strings(profiles)
	const transfer = 4 << 20
	for _, kind := range aqm.AllKinds {
		for _, name := range profiles {
			t.Run(string(kind)+"/"+name, func(t *testing.T) {
				eng, n := testbed(3, 10*units.Mbps, 20*units.Millisecond,
					aqm.MustNew(kind, aqm.Config{LimitPackets: 20}, nil))
				defer eng.Shutdown()
				path := n.Path()
				if tap != nil {
					path.Forward.Tap(tap(t), nil)
				}
				inj := faults.New(eng, faults.Profiles[name], 5)
				inj.ApplyPath(path)
				c := Dial(n, ConnConfig{})
				eng.Spawn("writer", func(p *sim.Proc) {
					for left := transfer; left > 0; {
						if d := inj.WriteStall(); d > 0 {
							p.Sleep(d)
						}
						got := c.Sender.Write(p, inj.WriteSize(min(left, 16<<10)))
						if got == 0 {
							return
						}
						left -= got
					}
				})
				read := 0
				eng.Spawn("reader", func(p *sim.Proc) {
					for read < transfer {
						got := c.Receiver.Read(p, inj.ReadSize(1<<20))
						if got == 0 {
							return
						}
						read += got
					}
				})
				eng.RunUntil(units.Time(120 * units.Second))
				if read != transfer || c.Sender.AckedCum() != transfer {
					t.Fatalf("transfer incomplete: read %d, acked %d of %d", read, c.Sender.AckedCum(), transfer)
				}
				done(t, eng, n, c)
			})
		}
	}
}

// TestPacketConservation runs a whole bulk transfer over every discipline
// and fault profile and holds the pool to gets == releases once every
// queue, lane, reorder closure and ACK batch has drained.
func TestPacketConservation(t *testing.T) {
	chaosTransfer(t, nil, func(t *testing.T, eng *sim.Engine, n *Net, c *Conn) {
		if n.Pool().Outstanding() != 0 {
			t.Errorf("outstanding with the connection idle = %d, want 0", n.Pool().Outstanding())
		}
		// The chaos loops (flaps, rate oscillation) never stop, so "dry"
		// is: transfer done, connection closed, then long enough for every
		// packet still somewhere to arrive.
		c.Close()
		eng.RunFor(5 * units.Second)
		if q := n.Path().Forward.QueueLen() + n.Path().Reverse.QueueLen(); q != 0 {
			t.Fatalf("queues not drained: %d packets", q)
		}
		if got := n.Pool().Outstanding(); got != 0 {
			t.Errorf("outstanding once dry = %d, want 0", got)
		}
	})
}

// TestTappedCopiesAreUnique holds the fact the waterfall's link tap stands
// on: a flow never puts two data copies with the same (seq, gen) through a
// tapped queue — sndNxt only grows and every retransmission bumps gen — so
// a copy can carry its own stamps instead of being looked up by that key.
// Every data enqueue, accepted or not, of the transfers above is recorded.
func TestTappedCopiesAreUnique(t *testing.T) {
	type copyKey struct {
		flow int
		seq  uint64
		gen  int
	}
	var seen map[copyKey]bool
	retx := 0
	tap := func(t *testing.T) aqm.TapHooks {
		seen = map[copyKey]bool{}
		return aqm.TapHooks{Enqueued: func(p *pkt.Packet, _ units.Time, _ bool) {
			if p.PayloadLen == 0 {
				return
			}
			k := copyKey{p.FlowID, p.Seq, p.Gen}
			if seen[k] {
				// Errorf: a tap can run on a sim.Proc's goroutine.
				t.Errorf("data copy (flow %d, seq %d, gen %d) enqueued twice", k.flow, k.seq, k.gen)
			}
			seen[k] = true
			if p.Gen > 0 {
				retx++
			}
		}}
	}
	chaosTransfer(t, tap, func(t *testing.T, _ *sim.Engine, _ *Net, _ *Conn) {
		if len(seen) < (4<<20)/ownMSS {
			t.Fatalf("%d data copies enqueued, fewer than the transfer's segments", len(seen))
		}
	})
	if retx == 0 {
		t.Fatal("no retransmission crossed the tapped queue: the test saw no second generation")
	}
}

// steadyAllocs warms a bulk connection over disc for two simulated seconds
// and reports the allocations of one further 12 ms slice (ten segments and
// their ACKs at 10 Mbps, end to end: endpoint, both links, the demux and
// the two application processes), averaged over six simulated seconds.
func steadyAllocs(t *testing.T, disc aqm.Discipline, cfg ConnConfig) float64 {
	pl := pkt.NewPool()
	p := pl.Get()
	p.Release()
	if pl.Get() != p {
		t.Skip("this build's pool does not recycle (-tags pktpoison): every packet is an allocation")
	}
	eng, n := testbed(1, 10*units.Mbps, 20*units.Millisecond, disc)
	defer eng.Shutdown()
	c := Dial(n, cfg)
	bulkSender(eng, c, 16<<10)
	promptReader(eng, c)
	eng.RunFor(2 * units.Second)
	return testing.AllocsPerRun(500, func() { eng.RunFor(12 * units.Millisecond) })
}

// TestSegmentAndAckZeroAlloc pins the pooled packet path: in steady state a
// data segment and its ACK cross the whole stack without allocating, where
// each used to be one heap object.
func TestSegmentAndAckZeroAlloc(t *testing.T) {
	segs, acks := 0, 0
	cfg := ConnConfig{SndBuf: 64 << 10} // window-limited below the queue limit: no loss
	cfg.SenderHooks.PacketSent = func(*pkt.Packet) { segs++ }
	cfg.ReceiverHooks.AckSent = func(*pkt.Packet) { acks++ }
	if n := steadyAllocs(t, nil, cfg); n != 0 {
		t.Fatalf("12 ms of steady bulk transfer allocates %v, want 0", n)
	}
	if segs < 5000 || acks < 2500 {
		t.Fatalf("only %d segments and %d ACKs crossed; the pin measured nothing", segs, acks)
	}
}

// TestSackAckZeroAlloc is the same pin on the recovery path: CoDel keeps
// dropping, so ACKs carry SACK blocks — in the packet's inline storage.
func TestSackAckZeroAlloc(t *testing.T) {
	retx, sacks := 0, 0
	var cfg ConnConfig
	cfg.SenderHooks.PacketSent = func(p *pkt.Packet) {
		if p.Gen > 0 {
			retx++
		}
	}
	cfg.ReceiverHooks.AckSent = func(p *pkt.Packet) {
		if len(p.Sack) > 0 {
			sacks++
		}
	}
	if n := steadyAllocs(t, aqm.NewCoDel(aqm.Config{}), cfg); n != 0 {
		t.Fatalf("12 ms of bulk transfer through a dropping CoDel allocates %v, want 0", n)
	}
	if retx < 10 || sacks < 30 {
		t.Fatalf("only %d retransmissions and %d SACK-carrying ACKs; the pin measured no recovery", retx, sacks)
	}
}
