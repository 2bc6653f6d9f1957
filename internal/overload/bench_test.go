package overload

import (
	"testing"

	"element/internal/telemetry/stream"
	"element/internal/units"
)

// tickLoop is BenchmarkGovernorTick's op: one governor round over a
// 1024-flow fleet with the pressure cycling across the deadband, so the
// cost includes candidate selection and the transition sort — the worst
// steady-state path.
func tickLoop() func() {
	g := New(Config{
		Budgets:   Budgets{RetainedSamples: 1 << 20},
		HoldTicks: 8,
		Seed:      1,
	}, 1024)
	over := Usage{RetainedSamples: 3 << 20}
	under := Usage{RetainedSamples: 1 << 10}
	i := 0
	return func() {
		if i&0x1f < 16 {
			g.Tick(over)
		} else {
			g.Tick(under)
		}
		i++
	}
}

func BenchmarkGovernorTick(b *testing.B) {
	tick := tickLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}

// TestGovernorTickZeroAlloc pins the tick allocation-free across whole
// shed/reclaim cycles (1000 rounds is 31 of them).
func TestGovernorTickZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1000, tickLoop()); n != 0 {
		t.Fatalf("governor tick allocates %v objects/op, want 0", n)
	}
}

// exportLoop is BenchmarkExportQueue's op: the enqueue→deliver round trip
// through the backpressured queue with a healthy sink, one deep-copied
// window in, one delivered out. Every ring slot is warmed first so steady
// state reuses the ring and each slot's grown sketch buffers.
func exportLoop() func() {
	sink := stream.SinkFunc(func([]string, *stream.Window) error { return nil })
	q := NewQueue(QueueConfig{Capacity: 64}, sink)
	names := []string{"snd_delay", "rcv_delay"}
	w := &stream.Window{Index: 1, Samples: 100, Sketches: make([]stream.Sketch, 2)}
	w.Sketches[0].Observe(0.01)
	w.Sketches[1].Observe(0.02)
	i := 0
	step := func() {
		w.Index = int64(i)
		q.ExportWindow(names, w)
		q.Advance(units.Time(i) * units.Time(units.Millisecond))
		i++
	}
	for i < 128 {
		step()
	}
	return step
}

func BenchmarkExportQueue(b *testing.B) {
	step := exportLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestExportQueueZeroAlloc pins the warmed round trip allocation-free.
func TestExportQueueZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1000, exportLoop()); n != 0 {
		t.Fatalf("export queue round trip allocates %v objects/op, want 0", n)
	}
}
