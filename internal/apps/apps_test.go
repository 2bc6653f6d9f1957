package apps

import (
	"testing"

	"element/internal/cc"
	"element/internal/core"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/units"
)

func vrNet(seed int64) (*sim.Engine, *stack.Net) {
	eng := sim.New(seed)
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: 50 * units.Mbps, Delay: 10 * units.Millisecond},
		Reverse: netem.LinkConfig{Rate: 50 * units.Mbps, Delay: 10 * units.Millisecond},
	})
	return eng, stack.NewNet(eng, path)
}

func TestBulkSenderAndSink(t *testing.T) {
	eng, net := vrNet(1)
	c := stack.Dial(net, stack.ConnConfig{CC: cc.KindCubic})
	StartBulkSender(eng, c.Sender, 0)
	StartSink(eng, c.Receiver)
	eng.RunUntil(units.Time(10 * units.Second))
	eng.Shutdown()
	got := float64(c.Receiver.ReadCum()) * 8 / 10
	if got < 40e6 {
		t.Fatalf("bulk goodput %.1f Mbps on a 50 Mbps link", got/1e6)
	}
}

func runVR(t *testing.T, useElement bool) *VRStats {
	t.Helper()
	eng, net := vrNet(3)
	c := stack.Dial(net, stack.ConnConfig{CC: cc.KindCubic})
	var snd *core.Sender
	if useElement {
		snd = core.AttachSender(eng, c.Sender, core.Options{Minimize: true})
	}
	st := RunVR(eng, VRConfig{
		UseElement: useElement,
		Element:    snd,
		Conn:       c,
		Duration:   30 * units.Second,
	})
	eng.RunUntil(units.Time(31 * units.Second))
	eng.Shutdown()
	return st
}

func TestVRBaselineDelivers(t *testing.T) {
	st := runVR(t, false)
	if len(st.FrameDelays) < 500 {
		t.Fatalf("only %d frames delivered", len(st.FrameDelays))
	}
	if st.Dropped != 0 {
		t.Fatalf("baseline dropped %d frames", st.Dropped)
	}
}

func TestVRElementMeetsDeadline(t *testing.T) {
	base := runVR(t, false)
	elem := runVR(t, true)
	baseMiss := base.DeadlineMissFraction(VRDeadline)
	elemMiss := elem.DeadlineMissFraction(VRDeadline)
	if elemMiss > 0.05 {
		t.Fatalf("ELEMENT VR misses %.1f%% of deadlines", 100*elemMiss)
	}
	if elemMiss >= baseMiss && baseMiss > 0.02 {
		t.Fatalf("ELEMENT (%.2f) not better than baseline (%.2f)", elemMiss, baseMiss)
	}
	// ELEMENT must still push meaningful video bitrate (≥ lowest tier).
	var sum float64
	for _, b := range elem.ThroughputSeries {
		sum += b
	}
	if len(elem.ThroughputSeries) > 0 {
		avg := sum / float64(len(elem.ThroughputSeries))
		if avg < 8e6 {
			t.Fatalf("ELEMENT VR throughput %.1f Mbps too low", avg/1e6)
		}
	}
}
