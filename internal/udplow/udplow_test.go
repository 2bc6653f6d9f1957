package udplow

import (
	"testing"

	"element/internal/aqm"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/units"
)

// sfqNet builds a 12 Mbps path with per-flow (SFQ) buffering, the setting
// of the paper's Figure 16 comparison.
func sfqNet(seed int64) (*sim.Engine, *stack.Net) {
	eng := sim.New(seed)
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{
			Rate:       12 * units.Mbps,
			Delay:      25 * units.Millisecond,
			Discipline: aqm.MustNew(aqm.KindSFQ, aqm.Config{}, nil),
		},
		Reverse: netem.LinkConfig{Rate: 12 * units.Mbps, Delay: 25 * units.Millisecond},
	})
	return eng, stack.NewNet(eng, path)
}

func runWithBackground(t *testing.T, mk func(*stack.Net) *Flow) (*Flow, []float64) {
	t.Helper()
	eng, net := sfqNet(7)
	var backgroundBytes []func() uint64
	for i := 0; i < 2; i++ {
		c := stack.Dial(net, stack.ConnConfig{})
		eng.Spawn("bg-writer", func(p *sim.Proc) {
			for c.Sender.Write(p, 16<<10) > 0 {
			}
		})
		eng.Spawn("bg-reader", func(p *sim.Proc) {
			for c.Receiver.Read(p, 1<<20) > 0 {
			}
		})
		backgroundBytes = append(backgroundBytes, c.Receiver.ReadCum)
	}
	f := mk(net)
	const dur = 60 * units.Second
	eng.RunUntil(units.Time(dur))
	f.Stop()
	eng.Shutdown()
	rates := []float64{
		float64(f.ReceivedBytes()) * 8 / dur.Seconds(),
		float64(backgroundBytes[0]()) * 8 / dur.Seconds(),
		float64(backgroundBytes[1]()) * 8 / dur.Seconds(),
	}
	return f, rates
}

func TestSproutLowDelayLowShare(t *testing.T) {
	f, rates := runWithBackground(t, NewSprout)
	if len(f.Delays()) == 0 {
		t.Fatal("no delay samples")
	}
	// One-way delay should stay near the 25 ms propagation floor, far
	// below the budget.
	if m := f.Delays().Mean(); m > 150*units.Millisecond {
		t.Fatalf("sprout mean one-way delay %v", m)
	}
	// Throughput well below the 4 Mbps fair share: conservative by design.
	fair := 12e6 / 3
	if rates[0] > 0.8*fair {
		t.Fatalf("sprout rate %.2f Mbps suspiciously close to fair share", rates[0]/1e6)
	}
	if rates[0] < 0.1e6 {
		t.Fatalf("sprout starved entirely: %.2f Mbps", rates[0]/1e6)
	}
}

func TestVerusLowDelayModestShare(t *testing.T) {
	f, rates := runWithBackground(t, NewVerus)
	if m := f.Delays().Mean(); m > 200*units.Millisecond {
		t.Fatalf("verus mean one-way delay %v", m)
	}
	if rates[0] < 0.1e6 {
		t.Fatalf("verus starved: %.2f Mbps", rates[0]/1e6)
	}
}

func TestBackgroundFlowsUnharmed(t *testing.T) {
	// The conservative UDP flow must leave the Cubic background flows
	// with at least their fair share.
	_, rates := runWithBackground(t, NewSprout)
	fair := 12e6 / 3
	for _, r := range rates[1:] {
		if r < 0.8*fair {
			t.Fatalf("background flow got %.2f Mbps < fair share", r/1e6)
		}
	}
}

func TestVerusBacksOffAboveTarget(t *testing.T) {
	eng, net := sfqNet(9)
	f := NewVerus(net)
	// Force high observed queueing delay and run one control step.
	r0 := f.rate
	f.rate = f.control(feedback{qdelay: 200 * units.Millisecond})
	if f.rate >= r0 {
		t.Fatalf("verus did not back off: %v -> %v", r0, f.rate)
	}
	r1 := f.rate
	f.rate = f.control(feedback{qdelay: 0})
	if f.rate <= r1 {
		t.Fatalf("verus did not grow under low delay")
	}
	f.Stop()
	eng.Shutdown()
}
