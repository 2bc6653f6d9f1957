package trace

import (
	"testing"

	"element/internal/cc"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/units"
)

func TestSeriesStats(t *testing.T) {
	s := Series{
		{At: 0, Delay: 10 * units.Millisecond, Bytes: 100},
		{At: 1, Delay: 30 * units.Millisecond, Bytes: 100},
	}
	if got := s.Mean(); got != 20*units.Millisecond {
		t.Fatalf("Mean = %v", got)
	}
	if got := s.Stdev(); got != 10*units.Millisecond {
		t.Fatalf("Stdev = %v", got)
	}
}

func TestSeriesMeanByteWeighted(t *testing.T) {
	s := Series{
		{Delay: 10 * units.Millisecond, Bytes: 300},
		{Delay: 50 * units.Millisecond, Bytes: 100},
	}
	if got := s.Mean(); got != 20*units.Millisecond {
		t.Fatalf("Mean = %v, want 20ms", got)
	}
}

func TestSeriesAtInterpolates(t *testing.T) {
	s := Series{
		{At: units.Time(units.Second), Delay: 10 * units.Millisecond},
		{At: units.Time(3 * units.Second), Delay: 30 * units.Millisecond},
	}
	got, ok := s.At(units.Time(2 * units.Second))
	if !ok || got != 20*units.Millisecond {
		t.Fatalf("At(2s) = %v, %v", got, ok)
	}
	if got, _ := s.At(0); got != 10*units.Millisecond {
		t.Fatalf("At(before) = %v", got)
	}
	if got, _ := s.At(units.Time(10 * units.Second)); got != 30*units.Millisecond {
		t.Fatalf("At(after) = %v", got)
	}
	if _, ok := (Series{}).At(0); ok {
		t.Fatal("At on empty series returned ok")
	}
}

// buildFlow runs a bulk flow with a collector attached and returns it.
func buildFlow(t *testing.T, lossRate float64, dur units.Duration) *Collector {
	return buildFlowCC(t, cc.KindCubic, lossRate, dur)
}

func buildFlowCC(t *testing.T, kind cc.Kind, lossRate float64, dur units.Duration) *Collector {
	t.Helper()
	eng := sim.New(42)
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{
			Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond, LossRate: lossRate,
		},
		Reverse: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
	})
	net := stack.NewNet(eng, path)
	col := New(eng)
	c := stack.Dial(net, stack.ConnConfig{
		CC:            kind,
		SenderHooks:   col.SenderHooks(),
		ReceiverHooks: col.ReceiverHooks(),
	})
	eng.Spawn("writer", func(p *sim.Proc) {
		for c.Sender.Write(p, 16<<10) > 0 {
		}
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		for c.Receiver.Read(p, 1<<20) > 0 {
		}
	})
	eng.RunUntil(units.Time(dur))
	eng.Shutdown()
	return col
}

func TestGroundTruthDecomposition(t *testing.T) {
	col := buildFlow(t, 0, 30*units.Second)

	nd := col.NetworkDelay()
	if len(nd) == 0 {
		t.Fatal("no network delay samples")
	}
	// One-way network delay ≥ propagation (25 ms). The upper bound is prop +
	// full queue (1000 pkts ≈ 1.23 s) plus loss recovery: network delay is
	// measured from the FIRST transmission (paper convention), so a segment
	// tail-dropped by the deep FIFO and fast-retransmitted carries the
	// recovery wait (up to ~an RTT + another queue traversal, more after an
	// RTO) in its sample.
	for _, s := range nd {
		if s.Delay < 25*units.Millisecond {
			t.Fatalf("network delay %v below propagation", s.Delay)
		}
		if s.Delay > 5*units.Second {
			t.Fatalf("network delay %v beyond queue capacity plus loss recovery", s.Delay)
		}
	}

	sd := col.SenderDelay()
	if len(sd) == 0 {
		t.Fatal("no sender delay samples")
	}
	// The paper's core observation: with buffer auto-tuning and Cubic, the
	// send-buffer delay dominates and reaches seconds.
	if sd.Mean() < 500*units.Millisecond {
		t.Fatalf("mean sender delay %v — bufferbloat not reproduced", sd.Mean())
	}

	rd := col.ReceiverDelay()
	if len(rd) == 0 {
		t.Fatal("no receiver delay samples")
	}
	// Receiver-side delay exists (out-of-order waits after congestion
	// drops) but must remain well below the sender-side delay — the
	// paper's Figure 2 ordering.
	if rd.Mean() >= sd.Mean()/3 {
		t.Fatalf("receiver delay %v not ≪ sender delay %v", rd.Mean(), sd.Mean())
	}
}

func TestReceiverDelayGrowsWithLoss(t *testing.T) {
	// Vegas keeps the bottleneck queue tiny, so the only source of
	// receiver-side delay is head-of-line blocking after random loss.
	noLoss := buildFlowCC(t, cc.KindVegas, 0, 20*units.Second)
	withLoss := buildFlowCC(t, cc.KindVegas, 0.02, 20*units.Second)
	a := noLoss.ReceiverDelay().Mean()
	b := withLoss.ReceiverDelay().Mean()
	if a > 5*units.Millisecond {
		t.Fatalf("Vegas receiver delay without loss = %v, want ≈ 0", a)
	}
	if b <= a*2 || b < 5*units.Millisecond {
		t.Fatalf("receiver delay with loss %v not ≫ without %v", b, a)
	}
}

func TestSenderDelayMatchesOccupancyLaw(t *testing.T) {
	// With a pinned small send buffer, the sender delay must stay below
	// roughly buffer/throughput.
	eng := sim.New(7)
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
		Reverse: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
	})
	net := stack.NewNet(eng, path)
	col := New(eng)
	c := stack.Dial(net, stack.ConnConfig{
		CC:            cc.KindCubic,
		SndBuf:        64 << 10,
		SenderHooks:   col.SenderHooks(),
		ReceiverHooks: col.ReceiverHooks(),
	})
	eng.Spawn("writer", func(p *sim.Proc) {
		for c.Sender.Write(p, 16<<10) > 0 {
		}
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		for c.Receiver.Read(p, 1<<20) > 0 {
		}
	})
	eng.RunUntil(units.Time(20 * units.Second))
	eng.Shutdown()
	// 64 KiB at 10 Mbps ≈ 52 ms ceiling (plus scheduling slack).
	if got := col.SenderDelay().Mean(); got > 120*units.Millisecond {
		t.Fatalf("sender delay %v with 64KiB pinned buffer", got)
	}
}

func TestConservationAcrossLayers(t *testing.T) {
	col := buildFlow(t, 0.01, 20*units.Second)
	var wrote, read int
	for _, s := range col.SenderDelay() {
		wrote += s.Bytes
	}
	for _, s := range col.ReceiverDelay() {
		read += s.Bytes
	}
	if read > wrote {
		t.Fatalf("read %d bytes > first-transmitted %d", read, wrote)
	}
	if read == 0 {
		t.Fatal("nothing read")
	}
}
