package trace

import (
	"runtime"
	"testing"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/units"
)

// TestHoleFillSampleFromFirstTransmission: a hole whose first
// transmission was lost keeps its stamp while out-of-order data waits
// above it and the app reads the in-order prefix below it — however many
// stamps the recorder holds — so the retransmission that fills it yields
// a network sample measured from the first transmission. The reference
// collector runs beside it and must agree sample for sample; waterfall's
// TestSegsTrackReadHorizon holds the recorder's segment index to the read
// horizon on the same schedule.
func TestHoleFillSampleFromFirstTransmission(t *testing.T) {
	const seg, segs, hole = 100, 5000, 10
	eng := sim.New(1)
	c, ref := New(eng), newRef(eng)
	sh, rh := withRef(ref, c)
	var firstTx, fillAt units.Time
	receives := 0
	receive := func(k int) {
		rh.TCPReceive(uint64(k)*seg, seg)
		receives++
	}
	eng.Spawn("driver", func(p *sim.Proc) {
		for k := 0; k < segs; k++ {
			if k == hole {
				firstTx = p.Now()
			}
			sh.TCPTransmit(uint64(k)*seg, seg, false)
			p.Sleep(units.Microsecond)
		}
		p.Sleep(20 * units.Millisecond)
		for k := 0; k < hole; k++ {
			receive(k)
		}
		for k := hole + 1; k < hole+6; k++ { // out of order, above the hole
			receive(k)
		}
		rh.AppRead(hole*seg, hole*seg) // the in-order prefix
		for k := hole + 6; k < segs; k++ {
			receive(k)
		}
		p.Sleep(200 * units.Millisecond)
		sh.TCPTransmit(hole*seg, seg, true)
		p.Sleep(20 * units.Millisecond)
		fillAt = p.Now()
		receive(hole)
		rh.AppRead(segs*seg, (segs-hole)*seg)
	})
	eng.Run()

	nd := c.NetworkDelay()
	if len(nd) != receives {
		t.Fatalf("%d new-byte arrivals, %d network samples", receives, len(nd))
	}
	if last := nd[len(nd)-1]; last.At != fillAt || last.Delay != fillAt.Sub(firstTx) {
		t.Fatalf("hole-fill sample %+v, want at %v a delay of %v (fill minus first transmission)",
			last, fillAt, fillAt.Sub(firstTx))
	}
	matchRef(t, "collector", c, ref)
}

// TestOneNetworkSamplePerArrival runs the lossy_mixed shape — Cubic,
// Cubic, BBR and Reno through one 50 Mbit/s, 40 ms CoDel bottleneck for
// 12 s, where BBR overdrives the queue and a fifth of its segments are
// retransmitted — and holds every collector to one network sample per
// new-byte arrival, and to the reference collector beside it sample for
// sample.
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
	refs := make([]*refCollector, len(kinds))
	arrivals := make([]int, len(kinds))
	for i, kind := range kinds {
		cols[i], refs[i] = New(eng), newRef(eng)
		snd, rcv := withRef(refs[i], cols[i])
		onReceive := rcv.TCPReceive
		rcv.TCPReceive = func(seq uint64, n int) {
			arrivals[i]++
			onReceive(seq, n)
		}
		conn := stack.Dial(net, stack.ConnConfig{CC: kind, SenderHooks: snd, ReceiverHooks: rcv})
		eng.Spawn("writer", func(p *sim.Proc) {
			for conn.Sender.Write(p, 8<<10) > 0 {
			}
		})
		eng.Spawn("reader", func(p *sim.Proc) {
			for conn.Receiver.Read(p, 1<<20) > 0 {
			}
		})
	}
	eng.RunUntil(units.Time(12 * units.Second))
	eng.Shutdown()
	for i, col := range cols {
		if n := len(col.NetworkDelay()); n != arrivals[i] || n == 0 {
			t.Errorf("flow %d (%v): %d new-byte arrivals, %d network samples", i, kinds[i], arrivals[i], n)
		}
		matchRef(t, "collector", col, refs[i])
	}
}

// TestInflightQueuesTrackWindow: the queues behind New's collector are
// sized by what is in flight, not by a fixed slack. 20 000 in-order
// segments pass through its hooks with the reader holding 8 received and
// unread, and beyond what its three series cost on their own the
// collector allocates at most 16 KiB: three queues of 32 entries of at
// most 80 B, twice over for their doubling. A queue compacted only past
// a 256-entry floor allocates about 76 KB more, and one never compacted
// about 12 MB more. The least of three runs is taken, should anything
// else allocate meanwhile.
func TestInflightQueuesTrackWindow(t *testing.T) {
	const seg, segs, inflight, maxExtra = 100, 20000, 8, 16 << 10
	extra := ^uint64(0)
	for try := 0; try < 3; try++ {
		c := New(sim.New(1))
		sh, rh := c.SenderHooks(), c.ReceiverHooks()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := uint64(0); i < segs; i++ {
			sh.AppWrite((i+1)*seg, seg)
			sh.TCPTransmit(i*seg, seg, false)
			rh.TCPReceive(i*seg, seg)
			if i >= inflight {
				rh.AppRead((i-inflight+1)*seg, seg)
			}
		}
		runtime.ReadMemStats(&after)
		total := after.TotalAlloc - before.TotalAlloc
		if got := c.ReceiverLog().Len(); got != segs-inflight {
			t.Fatalf("%d receiver samples, want %d", got, segs-inflight)
		}

		// The series alone: the same samples appended to fresh logs.
		series := []Series{c.SenderDelay(), c.NetworkDelay(), c.ReceiverDelay()}
		var logs [3]stats.Log[Sample]
		runtime.ReadMemStats(&before)
		for k, s := range series {
			for _, v := range s {
				logs[k].Append(v)
			}
		}
		runtime.ReadMemStats(&after)
		if logged := after.TotalAlloc - before.TotalAlloc; total > logged {
			extra = min(extra, total-logged)
		} else {
			extra = 0
		}
	}
	if extra > maxExtra {
		t.Fatalf("%d in-order segments with %d in flight allocated %d B beyond the series, want at most %d",
			segs, inflight, extra, maxExtra)
	}
}
