package stack

import (
	"testing"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/units"
)

func TestECNAvoidsRetransmissions(t *testing.T) {
	// Cubic over CoDel: with ECN the AQM marks instead of dropping, so the
	// flow should see (almost) no retransmissions while still backing off.
	run := func(ecn bool) (retrans int, goodput float64) {
		eng := sim.New(31)
		disc := aqm.MustNew(aqm.KindCoDel, aqm.Config{ECN: ecn}, eng.Rand())
		path := netem.NewPath(eng, netem.PathConfig{
			Forward: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond, Discipline: disc},
			Reverse: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
		})
		net := NewNet(eng, path)
		c := Dial(net, ConnConfig{CC: cc.KindCubic, ECN: ecn})
		bulkSender(eng, c, 64<<10)
		promptReader(eng, c)
		const dur = 30 * units.Second
		eng.RunUntil(units.Time(dur))
		eng.Shutdown()
		return c.Sender.GetsockoptTCPInfo().TotalRetrans,
			float64(c.Receiver.ReadCum()) * 8 / dur.Seconds()
	}
	retransNoECN, _ := run(false)
	retransECN, goodputECN := run(true)
	if retransNoECN == 0 {
		t.Fatal("CoDel without ECN never dropped — nothing to compare")
	}
	if retransECN > retransNoECN/4 {
		t.Fatalf("ECN retransmissions %d not ≪ drop-mode %d", retransECN, retransNoECN)
	}
	if goodputECN < 8e6 {
		t.Fatalf("ECN goodput %.2f Mbps", goodputECN/1e6)
	}
}

func TestECNKeepsCwndResponsive(t *testing.T) {
	// ECN marks must still make Cubic back off: the CoDel+ECN queue should
	// stay controlled, not grow to the tail-drop limit.
	eng := sim.New(32)
	disc := aqm.MustNew(aqm.KindCoDel, aqm.Config{ECN: true}, eng.Rand())
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond, Discipline: disc},
		Reverse: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
	})
	net := NewNet(eng, path)
	c := Dial(net, ConnConfig{CC: cc.KindCubic, ECN: true})
	bulkSender(eng, c, 64<<10)
	promptReader(eng, c)
	maxQ := 0
	var probe func()
	probe = func() {
		if q := path.Forward.QueueLen(); q > maxQ {
			maxQ = q
		}
		eng.Schedule(100*units.Millisecond, probe)
	}
	eng.Schedule(5*units.Second, probe)
	eng.RunUntil(units.Time(30 * units.Second))
	eng.Shutdown()
	if maxQ > 300 {
		t.Fatalf("queue grew to %d packets despite ECN signals", maxQ)
	}
	if st := path.Forward.QueueStats(); st.ECNMarks == 0 {
		t.Fatal("no CE marks recorded")
	}
}

func TestBBRPacingSmoothsBursts(t *testing.T) {
	// Compare the bottleneck queue occupancy of BBR (paced) vs Cubic
	// (unpaced) on the same path: BBR's standing queue should be a small
	// fraction of Cubic's.
	run := func(kind cc.Kind) int {
		eng := sim.New(33)
		path := netem.NewPath(eng, netem.PathConfig{
			Forward: netem.LinkConfig{Rate: 20 * units.Mbps, Delay: 25 * units.Millisecond},
			Reverse: netem.LinkConfig{Rate: 20 * units.Mbps, Delay: 25 * units.Millisecond},
		})
		net := NewNet(eng, path)
		c := Dial(net, ConnConfig{CC: kind})
		bulkSender(eng, c, 64<<10)
		promptReader(eng, c)
		sum, n := 0, 0
		var probe func()
		probe = func() {
			sum += path.Forward.QueueLen()
			n++
			eng.Schedule(100*units.Millisecond, probe)
		}
		eng.Schedule(10*units.Second, probe) // after startup
		eng.RunUntil(units.Time(40 * units.Second))
		eng.Shutdown()
		return sum / n
	}
	cubicQ := run(cc.KindCubic)
	bbrQ := run(cc.KindBBR)
	if bbrQ*3 > cubicQ {
		t.Fatalf("BBR avg queue %d not ≪ Cubic %d", bbrQ, cubicQ)
	}
}

func TestZeroWindowStallsAndRecovers(t *testing.T) {
	// A receiver that stops reading must eventually stall the sender via
	// the advertised window; resuming reads must restart the transfer.
	eng := sim.New(34)
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: 50 * units.Mbps, Delay: 5 * units.Millisecond},
		Reverse: netem.LinkConfig{Rate: 50 * units.Mbps, Delay: 5 * units.Millisecond},
	})
	net := NewNet(eng, path)
	c := Dial(net, ConnConfig{CC: cc.KindCubic, RcvBuf: 256 << 10})
	bulkSender(eng, c, 64<<10)

	// No reader for the first 5 seconds.
	readCh := sim.NewCond()
	eng.Spawn("lazy-reader", func(p *sim.Proc) {
		readCh.Wait(p)
		for c.Receiver.Read(p, 1<<20) > 0 {
		}
	})
	eng.RunUntil(units.Time(5 * units.Second))
	sentAtStall := c.Sender.Endpoint().SndNxt()
	// Stalled: in-flight + receiver-held bytes bounded by rcvbuf (plus one
	// window of slack for the in-flight race).
	if sentAtStall > 2*256<<10+64<<10 {
		t.Fatalf("sender pushed %d bytes into a 256KiB receive buffer", sentAtStall)
	}
	eng.Schedule(0, func() { readCh.Broadcast() })
	eng.RunUntil(units.Time(15 * units.Second))
	eng.Shutdown()
	if got := c.Receiver.ReadCum(); got < 10<<20 {
		t.Fatalf("transfer did not resume after zero-window: read %d", got)
	}
}

func TestUploadDirectionProfile(t *testing.T) {
	// Sanity for asymmetric profiles: the reverse (ACK) path must not
	// bottleneck a download even when the uplink is 10x slower.
	eng := sim.New(35)
	p := netem.Cable
	path := p.Build(eng, netem.BuildOptions{Direction: netem.Download})
	net := NewNet(eng, path)
	c := Dial(net, ConnConfig{CC: cc.KindCubic})
	bulkSender(eng, c, 64<<10)
	promptReader(eng, c)
	eng.RunUntil(units.Time(20 * units.Second))
	eng.Shutdown()
	got := float64(c.Receiver.ReadCum()) * 8 / 20
	if got < 60e6 {
		t.Fatalf("download goodput %.1f Mbps on a 100 Mbps cable profile", got/1e6)
	}
}
