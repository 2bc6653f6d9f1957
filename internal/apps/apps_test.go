package apps

import (
	"testing"

	"element/internal/cc"
	"element/internal/core"
	"element/internal/faults"
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

// TestBulkSenderAndSink drives the bulk writer/reader pair over a
// 50 Mbps link: with no stop in the run it saturates the link, a stop
// ends the writes (the reader still drains the stream), and an
// injector's partial writes, short reads and stalls reach the app.
func TestBulkSenderAndSink(t *testing.T) {
	const run = 10 * units.Second
	for _, c := range []struct {
		name    string
		stop    units.Time
		profile string // fault profile; "" runs without an injector
	}{
		{name: "no stop", stop: units.Time(2 * run)},
		{name: "stop at 2s", stop: units.Time(2 * units.Second)},
		{name: "app-stress", stop: units.Time(2 * run), profile: "app-stress"},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, net := vrNet(1)
			conn := stack.Dial(net, stack.ConnConfig{CC: cc.KindCubic})
			var inj *faults.Injector
			if c.profile != "" {
				inj = faults.New(eng, faults.Profiles[c.profile], 1)
			}
			StartBulk(eng, conn.Sender, conn.Receiver, DefaultChunk, c.stop, inj)
			var atStop uint64
			if c.stop < units.Time(run) {
				eng.RunUntil(c.stop)
				atStop = conn.Sender.WrittenCum()
			}
			eng.RunUntil(units.Time(run))
			eng.Shutdown()
			written, read := conn.Sender.WrittenCum(), conn.Receiver.ReadCum()
			switch {
			case c.stop < units.Time(run):
				// The write in progress at the stop may finish after it;
				// no later one starts.
				if atStop == 0 || written > atStop+DefaultChunk {
					t.Fatalf("wrote %d bytes by the stop and %d by the end, want at most one %d-byte chunk more",
						atStop, written, DefaultChunk)
				}
				if read != written {
					t.Fatalf("reader drained %d of %d bytes written", read, written)
				}
			case inj != nil:
				if n := inj.Counts(); n.PartialWrites == 0 || n.ShortReads == 0 || n.WriterStalls == 0 {
					t.Fatalf("injector counts %+v, want partial writes, short reads and stalls", n)
				}
				if read == 0 {
					t.Fatal("no bytes read under app-stress")
				}
			default:
				if got := float64(read) * 8 / run.Seconds(); got < 40e6 {
					t.Fatalf("bulk goodput %.1f Mbps on a 50 Mbps link", got/1e6)
				}
			}
		})
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
