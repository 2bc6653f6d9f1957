package trace

import (
	"fmt"
	"testing"

	"element/internal/sim"
)

// holeFillLoop is BenchmarkCollectorHoleFill's op: what one late segment
// costs the collector's recorder when ooo stamps wait out of order behind
// where it lands — at the front, as a retransmission does. One op: a new stamp
// arrives at the tail, the oldest waiting segment arrives (the first time
// into a hole, from then on as a second copy right behind the first), and
// the app reads it; so the queue stays ooo long and every late arrival is
// a search plus a shift. Segments sit on a pitch twice their length, so a
// read releases exactly the head segment.
func holeFillLoop(ooo int) func() {
	const seg, pitch = 100, 200
	rh := New(sim.New(1)).ReceiverHooks()
	next := uint64(0) // the oldest missing segment
	for k := 1; k <= ooo; k++ {
		rh.TCPReceive(uint64(k)*pitch, seg)
	}
	step := func() {
		rh.TCPReceive((next+uint64(ooo)+1)*pitch, seg)
		rh.TCPReceive(next*pitch, seg)
		rh.AppRead(next*pitch+seg, seg)
		next++
	}
	// A step logs two receiver delays and the series takes a chunk
	// every 512: this count stops mid-chunk, so the single step the
	// gate times at -benchtime 1x is not the one in 256 that allocates.
	for i := 0; i < 4*ooo+1100; i++ {
		step()
	}
	return step
}

var holeFillSizes = []int{64, 512, 4096}

// inOrderLoop is BenchmarkCollectorInOrder's op: one segment through
// New's four stamps in order — written, transmitted and received — and
// the read of the segment received unread ops before, so unread segments
// wait in the recorder's queues, as on a bulk transfer.
func inOrderLoop() func() {
	const seg, unread = 1448, 8
	c := New(sim.New(1))
	sh, rh := c.SenderHooks(), c.ReceiverHooks()
	next := uint64(0)
	step := func() {
		sh.AppWrite((next+1)*seg, seg)
		sh.TCPTransmit(next*seg, seg, false)
		rh.TCPReceive(next*seg, seg)
		if next >= unread {
			rh.AppRead((next-unread+1)*seg, seg)
		}
		next++
	}
	// A step logs one sample to each series, and the series take their
	// chunks together: this count stops mid-chunk, so the single step the
	// gate times at -benchtime 1x does not allocate.
	for range 5000 {
		step()
	}
	return step
}

// BenchmarkCollectorInOrder is what one in-order segment costs a
// truth-only recorder's four hooks.
func BenchmarkCollectorInOrder(b *testing.B) {
	step := inOrderLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkCollectorHoleFill(b *testing.B) {
	for _, ooo := range holeFillSizes {
		b.Run(fmt.Sprintf("ooo=%d", ooo), func(b *testing.B) {
			step := holeFillLoop(ooo)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestCollectorHoleFillZeroAlloc pins the late-arrival path below one
// allocation per op at every queue length, and the in-order path too: the
// only allocations left are the delay series' chunks.
func TestCollectorHoleFillZeroAlloc(t *testing.T) {
	for _, ooo := range holeFillSizes {
		if n := testing.AllocsPerRun(1000, holeFillLoop(ooo)); n != 0 {
			t.Errorf("ooo=%d: hole fill allocates %v objects/op, want 0", ooo, n)
		}
	}
	if n := testing.AllocsPerRun(1000, inOrderLoop()); n != 0 {
		t.Errorf("in order: the four hooks allocate %v objects/op, want 0", n)
	}
}
