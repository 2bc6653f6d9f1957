package trace

import (
	"fmt"
	"testing"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/units"
)

// horizonErr pins the transmit index to the read horizon: no stamp the
// reads overtook is live at the head, and the dead prefix awaiting
// compaction is never more than one compaction's worth. It returns an
// error rather than failing the test because the simulated processes
// that call it run on their own goroutines.
func horizonErr(c *Collector) error {
	if c.txHead < len(c.transmits) && c.transmits[c.txHead].end <= c.readCum {
		return fmt.Errorf("live head stamp [%d, %d) is at or below the read horizon %d",
			c.transmits[c.txHead].start, c.transmits[c.txHead].end, c.readCum)
	}
	if c.txHead > 0 && c.txHead*2 >= len(c.transmits) {
		return fmt.Errorf("dead prefix %d of %d stamps missed its compaction", c.txHead, len(c.transmits))
	}
	return nil
}

// TestHoleFillSampleFromFirstTransmission: a hole whose first
// transmission was lost keeps its stamp while out-of-order data waits
// above it and the app reads the in-order prefix below it — however many
// stamps the index holds — so the retransmission that fills it yields a
// network sample measured from the first transmission.
func TestHoleFillSampleFromFirstTransmission(t *testing.T) {
	const seg, segs, hole = 100, 5000, 10
	eng := sim.New(1)
	c := New(eng)
	var firstTx, fillAt units.Time
	var horizon error
	check := func() {
		if err := horizonErr(c); err != nil && horizon == nil {
			horizon = err
		}
	}
	receives := 0
	receive := func(k int) {
		c.onTCPReceive(uint64(k)*seg, seg)
		receives++
		check()
	}
	eng.Spawn("driver", func(p *sim.Proc) {
		for k := 0; k < segs; k++ {
			if k == hole {
				firstTx = p.Now()
			}
			c.onTCPTransmit(uint64(k)*seg, seg, false)
			p.Sleep(units.Microsecond)
		}
		p.Sleep(20 * units.Millisecond)
		for k := 0; k < hole; k++ {
			receive(k)
		}
		for k := hole + 1; k < hole+6; k++ { // out of order, above the hole
			receive(k)
		}
		c.onAppRead(hole*seg, hole*seg) // the in-order prefix
		check()
		for k := hole + 6; k < segs; k++ {
			receive(k)
		}
		p.Sleep(200 * units.Millisecond)
		c.onTCPTransmit(hole*seg, seg, true)
		p.Sleep(20 * units.Millisecond)
		fillAt = p.Now()
		receive(hole)
		c.onAppRead(segs*seg, (segs-hole)*seg)
		check()
	})
	eng.Run()
	if horizon != nil {
		t.Fatal(horizon)
	}

	nd := c.NetworkDelay()
	if len(nd) != receives {
		t.Fatalf("%d new-byte arrivals, %d network samples", receives, len(nd))
	}
	if last := nd[len(nd)-1]; last.At != fillAt || last.Delay != fillAt.Sub(firstTx) {
		t.Fatalf("hole-fill sample %+v, want at %v a delay of %v (fill minus first transmission)",
			last, fillAt, fillAt.Sub(firstTx))
	}
	if live := len(c.transmits) - c.txHead; live != 0 {
		t.Fatalf("%d transmit stamps live after the whole stream was read", live)
	}
}

// TestOneNetworkSamplePerArrival runs the lossy_mixed shape — Cubic,
// Cubic, BBR and Reno through one 50 Mbit/s, 40 ms CoDel bottleneck for
// 12 s, where BBR overdrives the queue and a fifth of its segments are
// retransmitted — and holds every collector to one network sample per
// new-byte arrival, with the transmit index at the read horizon
// throughout.
func TestOneNetworkSamplePerArrival(t *testing.T) {
	eng := sim.New(1)
	const rate, rtt = 50 * units.Mbps, 40 * units.Millisecond
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: rate, Delay: rtt / 2,
			Discipline: aqm.MustNew(aqm.KindCoDel, aqm.Config{}, eng.Rand())},
		Reverse: netem.LinkConfig{Rate: rate, Delay: rtt / 2},
	})
	net := stack.NewNet(eng, path)
	kinds := []cc.Kind{cc.KindCubic, cc.KindCubic, cc.KindBBR, cc.KindReno}
	cols := make([]*Collector, len(kinds))
	arrivals := make([]int, len(kinds))
	var horizon error
	for i, kind := range kinds {
		col := New(eng)
		cols[i] = col
		rcv := col.ReceiverHooks()
		onReceive := rcv.TCPReceive
		rcv.TCPReceive = func(seq uint64, n int) {
			arrivals[i]++
			onReceive(seq, n)
		}
		conn := stack.Dial(net, stack.ConnConfig{CC: kind, SenderHooks: col.SenderHooks(), ReceiverHooks: rcv})
		eng.Spawn("writer", func(p *sim.Proc) {
			for conn.Sender.Write(p, 8<<10) > 0 {
			}
		})
		eng.Spawn("reader", func(p *sim.Proc) {
			for conn.Receiver.Read(p, 1<<20) > 0 {
				if err := horizonErr(col); err != nil && horizon == nil {
					horizon = fmt.Errorf("flow %d: %w", i, err)
				}
			}
		})
	}
	eng.RunUntil(units.Time(12 * units.Second))
	eng.Shutdown()
	if horizon != nil {
		t.Fatal(horizon)
	}
	for i, col := range cols {
		if n := len(col.NetworkDelay()); n != arrivals[i] || n == 0 {
			t.Errorf("flow %d (%v): %d new-byte arrivals, %d network samples", i, kinds[i], arrivals[i], n)
		}
	}
}

// TestInflightQueuesTrackWindow: the collector's three queues are sized
// by what is in flight, not by a fixed slack. 20 000 in-order segments
// pass with the reader holding 8 received and unread, and no queue's
// capacity ever exceeds 32 — compaction drops a consumed prefix as soon
// as it is half the queue, however short.
func TestInflightQueuesTrackWindow(t *testing.T) {
	const seg, segs, inflight, maxCap = 100, 20000, 8, 32
	c := New(sim.New(1))
	for i := uint64(0); i < segs; i++ {
		c.onAppWrite((i+1)*seg, seg)
		c.onTCPTransmit(i*seg, seg, false)
		c.onTCPReceive(i*seg, seg)
		if i >= inflight {
			c.onAppRead((i-inflight+1)*seg, seg)
		}
		for name, n := range map[string]int{"writes": cap(c.writes), "transmits": cap(c.transmits), "receives": cap(c.receives)} {
			if n > maxCap {
				t.Fatalf("segment %d: %s has capacity %d with %d segments in flight, want at most %d", i, name, n, inflight, maxCap)
			}
		}
	}
	if got := c.ReceiverLog().Len(); got != segs-inflight {
		t.Fatalf("%d receiver samples, want %d", got, segs-inflight)
	}
}
