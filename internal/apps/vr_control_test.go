package apps

import (
	"testing"

	"element/internal/cc"
	"element/internal/core"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/units"
)

func runVRWithControl(t *testing.T, useElement bool) *VRStats {
	t.Helper()
	eng, net := vrNet(5)
	c := stack.Dial(net, stack.ConnConfig{CC: cc.KindCubic})
	ctrl := stack.DialReverse(net, stack.ConnConfig{CC: cc.KindCubic})
	var snd *core.Sender
	if useElement {
		snd = core.AttachSender(eng, c.Sender, core.Options{Minimize: true})
	}
	st := RunVR(eng, VRConfig{
		UseElement: useElement, Element: snd, Conn: c, Control: ctrl,
		Duration: 30 * units.Second,
	})
	eng.Spawn("ctrl-drain", func(p *sim.Proc) { // not strictly needed; sink is inside RunVR
		p.Sleep(units.Millisecond)
	})
	eng.RunUntil(units.Time(31 * units.Second))
	eng.Shutdown()
	return st
}

func TestVRControlChannelDrivesRefreshes(t *testing.T) {
	st := runVRWithControl(t, true)
	if st.Movements < 10 {
		t.Fatalf("only %d head movements in 30s", st.Movements)
	}
	if len(st.MotionToUpdate) < st.Movements/2 {
		t.Fatalf("only %d of %d movements produced a delivered refresh",
			len(st.MotionToUpdate), st.Movements)
	}
	// With ELEMENT the motion-to-update latency stays within the VR
	// sickness budget for the typical movement.
	if m := st.MotionToUpdate.Mean(); m > VRDeadline {
		t.Fatalf("mean motion-to-update %v exceeds the %v budget", m, VRDeadline)
	}
}

func TestVRControlChannelBaselineWorks(t *testing.T) {
	// The control channel must function without ELEMENT too (deadline
	// differences between the two modes are covered by the Fig18 tests).
	base := runVRWithControl(t, false)
	if len(base.MotionToUpdate) == 0 {
		t.Fatal("missing motion samples")
	}
	if base.MotionToUpdate.Mean() <= 0 {
		t.Fatal("nonpositive motion-to-update latency")
	}
}

func TestDialReverseDirection(t *testing.T) {
	eng, net := vrNet(6)
	rc := stack.DialReverse(net, stack.ConnConfig{CC: cc.KindCubic})
	// Data written at the "sender" (B side) must arrive at the A side
	// receiver, sharing the path with forward flows without collisions.
	fwd := stack.Dial(net, stack.ConnConfig{CC: cc.KindCubic})
	var got int
	eng.Spawn("rev-writer", func(p *sim.Proc) { rc.Sender.WriteFull(p, 64<<10) })
	eng.Spawn("rev-reader", func(p *sim.Proc) {
		for got < 64<<10 {
			n := rc.Receiver.Read(p, 1<<20)
			if n == 0 {
				return
			}
			got += n
		}
	})
	eng.Spawn("fwd-writer", func(p *sim.Proc) { fwd.Sender.WriteFull(p, 64<<10) })
	eng.Spawn("fwd-reader", func(p *sim.Proc) {
		for fwd.Receiver.Read(p, 1<<20) > 0 {
		}
	})
	eng.RunUntil(units.Time(5 * units.Second))
	eng.Shutdown()
	if got != 64<<10 {
		t.Fatalf("reverse connection delivered %d of %d bytes", got, 64<<10)
	}
	if fwd.Receiver.ReadCum() != 64<<10 {
		t.Fatalf("forward connection delivered %d", fwd.Receiver.ReadCum())
	}
}
