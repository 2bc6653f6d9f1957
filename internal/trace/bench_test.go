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
// allocation per op at every queue length: the only allocation left is
// the delay series' chunk, one step in 256.
func TestCollectorHoleFillZeroAlloc(t *testing.T) {
	for _, ooo := range holeFillSizes {
		if n := testing.AllocsPerRun(1000, holeFillLoop(ooo)); n != 0 {
			t.Errorf("ooo=%d: hole fill allocates %v objects/op, want 0", ooo, n)
		}
	}
}
