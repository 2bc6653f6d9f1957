package netem

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/units"
)

// linkGolden is the hash of everything the script in TestLinkDeliveryGolden
// lets an observer see. It was computed on commit 4ae072a, where every
// arrival was its own heap event (sim.Engine.AtCall): a mismatch means
// delivery order or timing moved against that commit. Do not update it to
// make a queue change pass.
const (
	linkGolden        = 0x18c871e80b2422e7
	linkGoldenRecords = 615
)

// TestLinkDeliveryGolden drives two links on one engine through a fixed
// seeded script — jitter and loss on one, loss on the other, SetDelay
// lowered and SetRate changed while packets are in flight — beside tickers
// whose period equals the second link's serialization time, so ticks and
// arrivals share instants in both scheduling orders (one chain re-arms 1 ms
// ahead, after the arrival was queued; the other 6 ms ahead, before it).
// Each sink and tick records (source, packet Seq or tick number, Now,
// Pending), in firing order.
func TestLinkDeliveryGolden(t *testing.T) {
	eng := sim.New(7)
	h := fnv.New64a()
	records := 0
	// Same-instant neighbours of different kinds, by which fired first.
	var tickThenArrival, arrivalThenTick int
	prevAt, prevTick := units.Time(-1), false
	record := func(src, id uint64) {
		isTick := src >= 2
		if eng.Now() == prevAt && isTick != prevTick {
			if isTick {
				arrivalThenTick++
			} else {
				tickThenArrival++
			}
		}
		prevAt, prevTick = eng.Now(), isTick
		var b [32]byte
		binary.LittleEndian.PutUint64(b[0:], src)
		binary.LittleEndian.PutUint64(b[8:], id)
		binary.LittleEndian.PutUint64(b[16:], uint64(eng.Now()))
		binary.LittleEndian.PutUint64(b[24:], uint64(eng.Pending()))
		h.Write(b[:])
		records++
	}
	// Deliveries on a that share an instant with the one before: arrivals
	// clamped to lastDelivery after SetDelay shrank under packets in flight.
	clamped, lastA := 0, units.Time(-1)
	var a, b *Link
	a = NewLink(eng, LinkConfig{
		Rate: 20 * units.Mbps, Delay: 8 * units.Millisecond,
		Jitter: 300 * units.Microsecond, LossRate: 0.02,
	}, func(p *pkt.Packet) {
		record(0, p.Seq)
		if eng.Now() == lastA {
			clamped++
		}
		lastA = eng.Now()
		if p.Seq%4 == 0 && p.Seq < 1<<32 { // a small echo, sent from inside the sink
			a.Send(&pkt.Packet{Seq: 1<<32 + p.Seq, HeaderLen: 40})
		}
	})
	// 1500 B at 12 Mbit/s serialize in exactly 1 ms, and the delay is a
	// whole number of milliseconds, so a backlogged b delivers on the
	// millisecond grid the tickers run on.
	b = NewLink(eng, LinkConfig{
		Rate: 12 * units.Mbps, Delay: 5 * units.Millisecond, LossRate: 0.01,
	}, func(p *pkt.Packet) { record(1, p.Seq) })

	ticks := uint64(0)
	chain := func(src uint64, period units.Duration) func() {
		var tick func()
		tick = func() {
			ticks++
			record(src, ticks)
			if eng.Now() < units.Time(90*units.Millisecond) {
				eng.Schedule(period, tick)
			}
		}
		return tick
	}
	eng.Schedule(units.Millisecond, chain(2, units.Millisecond))
	for i := 0; i < 6; i++ {
		eng.Schedule(units.Duration(i+1)*units.Millisecond, chain(3, 6*units.Millisecond))
	}

	rng := rand.New(rand.NewSource(99))
	seq := uint64(0)
	for burst := 0; burst < 60; burst++ {
		at := units.Duration(rng.Int63n(int64(70 * units.Millisecond)))
		l, full := a, rng.Intn(3) > 0
		if burst%2 == 1 {
			l, full = b, true // b stays on the millisecond grid
			at -= at % units.Millisecond
		}
		n := 1 + rng.Intn(12)
		eng.Schedule(at, func() {
			for i := 0; i < n; i++ {
				seq++
				p := &pkt.Packet{Seq: seq, PayloadLen: 1460, HeaderLen: 40}
				if !full {
					p.PayloadLen = rng.Intn(1460)
				}
				l.Send(p)
			}
		})
	}
	// Ten packets serializing across the 20 ms mark, where a's delay drops
	// from 8 ms to 2 ms: the later ones would overtake the earlier.
	eng.Schedule(18*units.Millisecond, func() {
		for i := 0; i < 10; i++ {
			seq++
			a.Send(&pkt.Packet{Seq: seq, PayloadLen: 1460, HeaderLen: 40})
		}
	})
	eng.Schedule(20*units.Millisecond, func() { a.SetDelay(2 * units.Millisecond) })
	eng.Schedule(30*units.Millisecond, func() {
		a.SetRate(50 * units.Mbps)
		b.SetRate(48 * units.Mbps)
	})
	eng.Schedule(45*units.Millisecond, func() { b.SetDelay(units.Millisecond) })
	eng.Run()

	if lost := a.Stats().Lost + b.Stats().Lost; lost == 0 {
		t.Fatal("script lost no packet; the loss draw is not exercised")
	}
	if clamped == 0 {
		t.Fatal("no arrival was clamped to lastDelivery; SetDelay did not shrink under packets in flight")
	}
	if tickThenArrival == 0 || arrivalThenTick == 0 {
		t.Fatalf("same-instant ties: %d tick-first, %d arrival-first; the script must produce both", tickThenArrival, arrivalThenTick)
	}
	if got := h.Sum64(); got != linkGolden || records != linkGoldenRecords {
		t.Fatalf("delivery transcript hash %#x over %d records, want %#x over %d (computed on the commit before lanes)",
			got, records, uint64(linkGolden), linkGoldenRecords)
	}
}
