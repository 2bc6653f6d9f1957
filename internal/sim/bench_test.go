package sim

import (
	"strconv"
	"testing"

	"element/internal/units"
)

// dispatchBatch is how many events one benchmark op covers: a -benchtime 1x
// iteration (what benchsmoke and the gate run) then times thousands of
// events, not one cold one. The root package's benchmarks use the same.
const dispatchBatch = 4096

// BenchmarkEngineDispatch measures the event core alone. Gated at zero
// allocs/op: a closure or a boxed event on this path fails `make
// bench-gate`.
//
// depth=N: one op is dispatchBatch Schedule+Step pairs with the queue held
// at N events (random delays, so every push and pop sifts) and nothing ever
// stopped: the cost of keeping the position index with no Stop to use it.
//
// rearm: TCP's retransmission timer. 64 timers 200 ms out; one op is
// dispatchBatch × (Stop one and arm its replacement, Schedule and Step one
// event ≈ 100 µs out). heap-keys is len(heap) afterwards: the 64 timers
// when Stop removes the key, ≈ 2 000 more (200 ms of stopped keys at one
// per 100 µs) when it is left for its deadline.
func BenchmarkEngineDispatch(b *testing.B) {
	for _, depth := range []int{64, 1024, 16384} {
		b.Run("depth="+strconv.Itoa(depth), func(b *testing.B) {
			eng := New(1)
			delay := func() units.Duration { return units.Duration(1 + eng.Rand().Intn(1_000_000)) }
			for i := 0; i < depth; i++ {
				eng.Schedule(delay(), noop)
			}
			for i := 0; i < dispatchBatch; i++ { // warm: slab and heap at their peak
				eng.Schedule(delay(), noop)
				eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < dispatchBatch; j++ {
					eng.Schedule(delay(), noop)
					eng.Step()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dispatchBatch), "ns/event")
		})
	}
	b.Run("rearm", func(b *testing.B) {
		eng := New(1)
		const rto = 200 * units.Millisecond
		var timers [64]Timer
		for i := range timers {
			timers[i] = eng.Schedule(rto, noop)
		}
		batch := func() {
			for j := 0; j < dispatchBatch; j++ {
				t := &timers[j%len(timers)]
				t.Stop()
				*t = eng.Schedule(rto, noop)
				eng.Schedule(units.Duration(1+eng.Rand().Intn(200_000)), noop)
				eng.Step()
			}
		}
		batch() // warm: ≈ 400 ms of virtual time, so a lazy heap is at its steady size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dispatchBatch), "ns/event")
		b.ReportMetric(float64(len(eng.heap)), "heap-keys")
	})
}
