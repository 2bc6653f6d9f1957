package netem

import (
	"testing"
	"testing/quick"

	"element/internal/aqm"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/units"
)

func TestLinkSerializationAndPropagation(t *testing.T) {
	eng := sim.New(1)
	var arrivals []units.Time
	l := NewLink(eng, LinkConfig{
		Rate:  10 * units.Mbps,
		Delay: 25 * units.Millisecond,
	}, func(p *pkt.Packet) { arrivals = append(arrivals, eng.Now()) })

	// 1460+40 = 1500 bytes at 10 Mbps = 1.2 ms serialization.
	for i := 0; i < 3; i++ {
		l.Send(&pkt.Packet{PayloadLen: 1460, HeaderLen: 40})
	}
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d, want 3", len(arrivals))
	}
	tx := units.Duration(1200 * units.Microsecond)
	for i, a := range arrivals {
		want := units.Time(0).Add(units.Duration(i+1)*tx + 25*units.Millisecond)
		if diff := a.Sub(want); diff > units.Microsecond || diff < -units.Microsecond {
			t.Fatalf("arrival %d at %v, want %v", i, a, want)
		}
	}
}

func TestLinkQueueBuildsDelay(t *testing.T) {
	eng := sim.New(1)
	var last units.Time
	n := 0
	l := NewLink(eng, LinkConfig{Rate: 10 * units.Mbps}, func(p *pkt.Packet) {
		last = eng.Now()
		n++
	})
	// 100 packets burst: last should leave at ~100 * 1.2ms.
	for i := 0; i < 100; i++ {
		l.Send(&pkt.Packet{PayloadLen: 1460, HeaderLen: 40})
	}
	if l.QueueLen() != 99 { // one is in the transmitter
		t.Fatalf("QueueLen = %d, want 99", l.QueueLen())
	}
	eng.Run()
	if n != 100 {
		t.Fatalf("delivered %d, want 100", n)
	}
	want := units.Time(0).Add(100 * 1200 * units.Microsecond)
	if diff := last.Sub(want); diff > units.Microsecond || diff < -units.Microsecond {
		t.Fatalf("last delivery %v, want %v", last, want)
	}
}

func TestLinkLoss(t *testing.T) {
	eng := sim.New(7)
	delivered := 0
	l := NewLink(eng, LinkConfig{
		Rate: 1 * units.Gbps, LossRate: 0.3,
		Discipline: aqm.NewFIFO(aqm.Config{LimitPackets: 20000}),
	}, func(p *pkt.Packet) {
		delivered++
	})
	const total = 10000
	for i := 0; i < total; i++ {
		l.Send(&pkt.Packet{PayloadLen: 100})
	}
	eng.Run()
	st := l.Stats()
	if st.Lost+delivered != total {
		t.Fatalf("lost %d + delivered %d != %d", st.Lost, delivered, total)
	}
	frac := float64(st.Lost) / total
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("loss fraction %v, want ≈ 0.3", frac)
	}
}

func TestJitterPreservesOrder(t *testing.T) {
	eng := sim.New(3)
	var seqs []uint64
	l := NewLink(eng, LinkConfig{
		Rate:   100 * units.Mbps,
		Delay:  10 * units.Millisecond,
		Jitter: 20 * units.Millisecond,
	}, func(p *pkt.Packet) { seqs = append(seqs, p.Seq) })
	for i := 0; i < 500; i++ {
		l.Send(&pkt.Packet{Seq: uint64(i), PayloadLen: 100})
	}
	eng.Run()
	if len(seqs) != 500 {
		t.Fatalf("delivered %d", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("reordering at %d: %d after %d", i, seqs[i], seqs[i-1])
		}
	}
}

func TestSetRateTakesEffect(t *testing.T) {
	eng := sim.New(1)
	var times []units.Time
	l := NewLink(eng, LinkConfig{Rate: 10 * units.Mbps}, func(p *pkt.Packet) {
		times = append(times, eng.Now())
	})
	l.Send(&pkt.Packet{PayloadLen: 1460, HeaderLen: 40})
	eng.Schedule(600*units.Microsecond, func() { l.SetRate(100 * units.Mbps) })
	eng.Schedule(2*units.Millisecond, func() {
		l.Send(&pkt.Packet{PayloadLen: 1460, HeaderLen: 40})
	})
	eng.Run()
	// First packet at the slow rate: 1.2ms. Second at fast rate: 0.12ms.
	if times[0] != units.Time(1200*units.Microsecond) {
		t.Fatalf("first delivery at %v", times[0])
	}
	want := units.Time(2*units.Millisecond + 120*units.Microsecond)
	if times[1] != want {
		t.Fatalf("second delivery at %v, want %v", times[1], want)
	}
}

func TestPathDuplex(t *testing.T) {
	eng := sim.New(1)
	p := NewPath(eng, PathConfig{
		Forward: LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
	})
	var atB, atA int
	p.AttachB(func(q *pkt.Packet) {
		atB++
		p.SendBtoA(&pkt.Packet{Flags: pkt.FlagACK})
	})
	p.AttachA(func(q *pkt.Packet) { atA++ })
	p.SendAtoB(&pkt.Packet{PayloadLen: 1000})
	eng.Run()
	if atB != 1 || atA != 1 {
		t.Fatalf("atB=%d atA=%d", atB, atA)
	}
	if got := p.RTT(); got != 50*units.Millisecond {
		t.Fatalf("RTT = %v", got)
	}
}

func TestProfileLookup(t *testing.T) {
	for _, name := range []string{"lan", "cable", "wifi", "lte", "wired-low-bw", "wired-high-bw"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("ProfileByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("got %q", p.Name)
		}
	}
	if _, err := ProfileByName("dialup"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestProfileBuildDirections(t *testing.T) {
	eng := sim.New(1)
	down := Cable.Build(eng, BuildOptions{Direction: Download})
	if down.Forward.Rate() != 100*units.Mbps || down.Reverse.Rate() != 10*units.Mbps {
		t.Fatalf("download rates: fwd=%v rev=%v", down.Forward.Rate(), down.Reverse.Rate())
	}
	up := Cable.Build(eng, BuildOptions{Direction: Upload, Discipline: aqm.KindCoDel})
	if up.Forward.Rate() != 10*units.Mbps {
		t.Fatalf("upload fwd rate = %v", up.Forward.Rate())
	}
	if up.Forward.Discipline().Name() != "codel" {
		t.Fatalf("discipline = %q", up.Forward.Discipline().Name())
	}
}

func TestModulationVariesRate(t *testing.T) {
	eng := sim.New(11)
	path := WiFi.Build(eng, BuildOptions{})
	rates := map[units.Rate]bool{}
	var sample func()
	sample = func() {
		rates[path.Forward.Rate()] = true
		if eng.Now() < units.Time(2*units.Second) {
			eng.Schedule(10*units.Millisecond, sample)
		}
	}
	eng.Schedule(units.Millisecond, sample)
	// The modulation process reschedules itself forever, so bound the run.
	eng.RunUntil(units.Time(3 * units.Second))
	if len(rates) < 10 {
		t.Fatalf("rate took only %d distinct values", len(rates))
	}
	for r := range rates {
		if r < units.Rate(float64(WiFi.DownRate)*0.1) || r > WiFi.DownRate {
			t.Fatalf("rate %v outside modulation envelope", r)
		}
	}
}

func TestDynamicBandwidthToggle(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, LinkConfig{Rate: 10 * units.Mbps}, func(p *pkt.Packet) {})
	StartDynamicBandwidth(eng, l, 10*units.Mbps, 50*units.Mbps, 20*units.Second)
	eng.RunUntil(units.Time(30 * units.Second))
	if l.Rate() != 50*units.Mbps {
		t.Fatalf("rate after 30s = %v, want 50Mbps", l.Rate())
	}
	eng.RunUntil(units.Time(50 * units.Second))
	if l.Rate() != 10*units.Mbps {
		t.Fatalf("rate after 50s = %v, want 10Mbps", l.Rate())
	}
	eng.Shutdown()
}

// Property: a link never reorders packets and conserves them (delivered +
// lost + queued = sent) for any burst pattern without loss.
func TestPropertyLinkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.New(5)
		var got []uint64
		l := NewLink(eng, LinkConfig{Rate: 5 * units.Mbps, Delay: units.Millisecond},
			func(p *pkt.Packet) { got = append(got, p.Seq) })
		sent := 0
		for i, s := range sizes {
			if len(sizes) > 200 && i >= 200 {
				break
			}
			l.Send(&pkt.Packet{Seq: uint64(i), PayloadLen: int(s % 1460)})
			sent++
		}
		eng.Run()
		drops := l.QueueStats().TailDrops
		if len(got)+drops != sent {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkCrossingZeroAlloc pins the per-packet path: Send → serialise →
// propagate → sink schedules two events, neither through a closure, so a
// crossing allocates nothing once the engine's slab is warm.
func TestLinkCrossingZeroAlloc(t *testing.T) {
	eng := sim.New(1)
	delivered := 0
	l := NewLink(eng, LinkConfig{Rate: 100 * units.Mbps, Delay: 5 * units.Millisecond},
		func(p *pkt.Packet) { delivered++ })
	p := &pkt.Packet{PayloadLen: 1460, HeaderLen: 40}
	cross := func() {
		l.Send(p)
		eng.Run()
	}
	cross()
	if n := testing.AllocsPerRun(1000, cross); n != 0 {
		t.Fatalf("one link crossing allocates %v, want 0", n)
	}
	if delivered != 1002 { // warm-up + AllocsPerRun's own warm-up call + 1000
		t.Fatalf("delivered %d packets, want 1002", delivered)
	}
}
