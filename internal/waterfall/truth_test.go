package waterfall

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

// segsHorizonErr pins the segment index to the read horizon: no record
// the reads overtook is live at the head, and the dead prefix awaiting
// compaction is never more than one compaction's worth. It returns an
// error rather than failing the test because the simulated processes
// that call it run on their own goroutines.
func segsHorizonErr(r *Recorder) error {
	if r.segHead < len(r.segs) && r.segs[r.segHead].end() <= r.readCum {
		s := r.segs[r.segHead]
		return fmt.Errorf("live head segment [%d, %d) is at or below the read horizon %d", s.seq, s.end(), r.readCum)
	}
	if r.segHead > 0 && r.segHead*2 >= len(r.segs) {
		return fmt.Errorf("dead prefix %d of %d segments missed its compaction", r.segHead, len(r.segs))
	}
	return nil
}

// TestSegsTrackReadHorizon: a hole whose first transmission was lost
// keeps its segment record while out-of-order data waits above it and
// the app reads the in-order prefix below it, however many records the
// index holds, so the retransmission that fills it yields a network
// sample measured from the first transmission; the index stays at the
// read horizon throughout and is empty once the stream is read.
func TestSegsTrackReadHorizon(t *testing.T) {
	const seg, segs, hole = 100, 5000, 10
	var now units.Time
	var tr Truth
	r := NewTruth(func() units.Time { return now })
	r.RecordTruth(&tr)
	check := func() {
		t.Helper()
		if err := segsHorizonErr(r); err != nil {
			t.Fatal(err)
		}
	}
	var firstTx units.Time
	for k := uint64(0); k < segs; k++ {
		if k == hole {
			firstTx = now
		}
		r.onTransmit(k*seg, seg, false)
		now = now.Add(units.Microsecond)
	}
	now = now.Add(20 * units.Millisecond)
	for k := uint64(0); k < segs; k++ {
		if k == hole {
			continue
		}
		r.onTCPReceive(k*seg, seg)
		if k == hole+5 {
			r.onAppRead(hole*seg, hole*seg) // the in-order prefix
		}
		check()
	}
	now = now.Add(200 * units.Millisecond)
	r.onTransmit(hole*seg, seg, true)
	now = now.Add(20 * units.Millisecond)
	r.onTCPReceive(hole*seg, seg)
	if last := tr.Network.At(tr.Network.Len() - 1); last.Delay != now.Sub(firstTx) {
		t.Fatalf("hole-fill sample %+v, want a delay of %v (fill minus first transmission)", last, now.Sub(firstTx))
	}
	r.onAppRead(segs*seg, (segs-hole)*seg)
	check()
	if live := len(r.segs) - r.segHead; live != 0 {
		t.Fatalf("%d segment records live after the whole stream was read", live)
	}
}

// TestSegsTrackReadHorizonOnLossyPath runs the lossy_mixed shape — Cubic,
// Cubic, BBR and Reno through one 50 Mbit/s, 40 ms CoDel bottleneck for
// 12 s, where BBR overdrives the queue and a fifth of its segments are
// retransmitted — and holds every ground-truth recorder's segment index
// to the read horizon after every read.
func TestSegsTrackReadHorizonOnLossyPath(t *testing.T) {
	eng := sim.New(1)
	const rate, rtt = 50 * units.Mbps, 40 * units.Millisecond
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: rate, Delay: rtt / 2,
			Discipline: aqm.MustNew(aqm.KindCoDel, aqm.Config{}, eng.Rand())},
		Reverse: netem.LinkConfig{Rate: rate, Delay: rtt / 2},
	})
	net := stack.NewNet(eng, path)
	var horizon error
	for i, kind := range []cc.Kind{cc.KindCubic, cc.KindCubic, cc.KindBBR, cc.KindReno} {
		r := NewTruth(eng.Now)
		r.RecordTruth(new(Truth))
		conn := stack.Dial(net, stack.ConnConfig{
			CC:            kind,
			SenderHooks:   r.SenderHooks(),
			ReceiverHooks: r.ReceiverHooks(),
		})
		eng.Spawn("writer", func(p *sim.Proc) {
			for conn.Sender.Write(p, 8<<10) > 0 {
			}
		})
		eng.Spawn("reader", func(p *sim.Proc) {
			for conn.Receiver.Read(p, 1<<20) > 0 {
				if err := segsHorizonErr(r); err != nil && horizon == nil {
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
}
