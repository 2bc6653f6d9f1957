package core

import (
	"testing"

	"element/internal/cc"
	"element/internal/faults"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/telemetry"
	"element/internal/units"
)

// TestShellTelemetry holds the tracker shell's telemetry to the trackers'
// own accounts over a short bulk run with random loss (so reads wait
// behind holes) and the mss-drift fault profile (which grades samples
// low): each side's poll counter equals its
// Polls, its match counter and match-delay histogram count equal the
// samples in its log, its low-confidence counter the low-grade samples
// among them, and the sender's FIFO-depth series is recorded.
func TestShellTelemetry(t *testing.T) {
	prof, err := faults.ByName("mss-drift")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(5)
	tel := telemetry.New()
	tel.SetClock(eng.Now)
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond, LossRate: 0.01},
		Reverse: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
	})
	conn := stack.Dial(stack.NewNet(eng, path), stack.ConnConfig{CC: cc.KindCubic})
	inj := faults.New(eng, prof, 7)
	snd := AttachSender(eng, conn.Sender, Options{Telem: tel, Info: inj.WrapInfo(conn.Sender)})
	rcv := AttachReceiver(eng, conn.Receiver, Options{Telem: tel, Info: inj.WrapInfo(conn.Receiver)})
	eng.Spawn("writer", func(p *sim.Proc) {
		for snd.Send(p, 16<<10).Size > 0 {
		}
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		for rcv.Read(p, 1<<20).Size > 0 {
		}
	})
	eng.RunUntil(units.Time(3 * units.Second))
	snd.Close()
	rcv.Close()
	eng.Shutdown()

	counters := map[string]float64{}
	for _, c := range tel.Registry().Counters() {
		counters[c.Name] = c.Value()
	}
	hists := map[string]uint64{}
	for _, h := range tel.Registry().Histograms() {
		hists[h.Name] = h.Count()
	}
	lowTotal := 0
	for _, c := range []struct {
		prefix string
		polls  int
		log    []Measurement
	}{
		{"snd", snd.Tracker.Polls(), snd.Estimates().Log()},
		{"rcv", rcv.Tracker.Polls(), rcv.Estimates().Log()},
	} {
		low := 0
		for _, m := range c.log {
			if m.Confidence == ConfidenceLow {
				low++
			}
		}
		lowTotal += low
		if c.polls == 0 || len(c.log) == 0 {
			t.Fatalf("%s: %d polls, %d samples: the run pins nothing", c.prefix, c.polls, len(c.log))
		}
		if got := counters[c.prefix+"_polls"]; got != float64(c.polls) {
			t.Errorf("%s_polls = %v, Polls() = %d", c.prefix, got, c.polls)
		}
		if got := counters[c.prefix+"_matches"]; got != float64(len(c.log)) {
			t.Errorf("%s_matches = %v, %d samples", c.prefix, got, len(c.log))
		}
		if got := hists[c.prefix+"_match_delay_seconds"]; got != uint64(len(c.log)) {
			t.Errorf("%s_match_delay_seconds count = %d, %d samples", c.prefix, got, len(c.log))
		}
		if got := counters[c.prefix+"_low_confidence_samples"]; got != float64(low) {
			t.Errorf("%s_low_confidence_samples = %v, %d low-grade samples", c.prefix, got, low)
		}
	}
	if lowTotal == 0 {
		t.Fatal("no low-grade sample: the low-confidence counters are not exercised")
	}
	fifo := 0
	for _, ev := range tel.Tracer().Events() {
		if ev.Sample && ev.Name == "snd_fifo" {
			fifo++
		}
	}
	if fifo == 0 {
		t.Error("no snd_fifo sample recorded")
	}
}
