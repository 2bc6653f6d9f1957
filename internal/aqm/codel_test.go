package aqm

import (
	"testing"

	"element/internal/units"
)

func TestCoDelNoDropBelowTarget(t *testing.T) {
	c := NewCoDel(Config{})
	now := units.Time(0)
	// Sojourn always below target: nothing is ever dropped.
	for i := 0; i < 1000; i++ {
		c.Enqueue(mkpkt(1, 1000), now)
		now = now.Add(units.Millisecond)
		if p := c.Dequeue(now); p == nil {
			t.Fatal("lost a packet below target")
		}
	}
	if st := c.Stats(); st.AQMDrops != 0 {
		t.Fatalf("dropped %d below target", st.AQMDrops)
	}
}

func TestCoDelDropSpacingFollowsControlLaw(t *testing.T) {
	// Under a standing queue, successive drops should get closer together
	// (interval/sqrt(count)).
	c := NewCoDel(Config{})
	now := units.Time(0)
	var dropTimes []units.Time
	enq := func() {
		for c.Len() < 50 {
			c.Enqueue(mkpkt(1, 1000), now)
		}
	}
	lastLen := 0
	for now < units.Time(5*units.Second) {
		enq()
		before := c.Stats().AQMDrops
		c.Dequeue(now)
		if c.Stats().AQMDrops > before {
			dropTimes = append(dropTimes, now)
		}
		now = now.Add(5 * units.Millisecond) // drain far slower than arrival
		_ = lastLen
	}
	if len(dropTimes) < 4 {
		t.Fatalf("only %d drops", len(dropTimes))
	}
	first := dropTimes[1].Sub(dropTimes[0])
	later := dropTimes[len(dropTimes)-1].Sub(dropTimes[len(dropTimes)-2])
	if later > first {
		t.Fatalf("drop spacing grew: first gap %v, last gap %v", first, later)
	}
}

func TestSFQDropFromLongest(t *testing.T) {
	f := newSFQ(Config{LimitPackets: 10})
	now := units.Time(0)
	// Flow 1 hogs the queue; flow 2 sends one packet.
	for i := 0; i < 9; i++ {
		f.Enqueue(mkpkt(1, 1400), now)
	}
	f.Enqueue(mkpkt(2, 200), now)
	// Next arrival overflows: the drop must come from flow 1 (longest),
	// and the new packet must be admitted.
	if !f.Enqueue(mkpkt(2, 200), now) {
		t.Fatal("arrival rejected despite drop-from-longest")
	}
	if f.Len() != 10 {
		t.Fatalf("Len = %d", f.Len())
	}
	// Drain and count per-flow survivors.
	counts := map[int]int{}
	for {
		p := f.Dequeue(now)
		if p == nil {
			break
		}
		counts[p.FlowID]++
	}
	if counts[2] != 2 {
		t.Fatalf("flow 2 lost packets: %v", counts)
	}
	if counts[1] != 8 {
		t.Fatalf("flow 1 = %d, want 8 (one head-dropped)", counts[1])
	}
}

func TestPIEECNMode(t *testing.T) {
	p := NewPIE(Config{ECN: true}, nil)
	p.dropProb = 1.0 // force the drop decision
	p.started = true
	p.burstLeft = 0
	p.qdelayOld = PIETarget * 2
	pk := mkpkt(1, 1000)
	pk.ECT = true
	// Fill past the small-queue exemption first.
	for i := 0; i < 3; i++ {
		p.q.push(mkpkt(1, 1000))
	}
	if !p.Enqueue(pk, 0) {
		t.Fatal("ECT packet dropped instead of marked")
	}
	if !pk.CE {
		t.Fatal("ECT packet not CE-marked")
	}
}
