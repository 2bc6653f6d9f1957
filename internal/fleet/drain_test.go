package fleet

import (
	"io"
	"runtime"
	"testing"

	"element/internal/overload"
	"element/internal/telemetry/stream"
	"element/internal/testutil"
	"element/internal/units"
	"element/internal/waterfall"
)

// drainedChurnConfig is the fleet_churn shape at a test's size:
// staggered opens, early closes, crashes and stalls, stream windows with
// escalation through a retrying export queue, a retained-sample budget
// the governor sheds for, and the caller's waterfall.
func drainedChurnConfig(seed int64, conns int, wf *waterfall.Waterfall) Config {
	return Config{
		Seed: seed, Connections: conns, Duration: 2 * units.Second,
		Rate: 4 * units.Mbps, RTT: 40 * units.Millisecond, Interval: 10 * units.Millisecond,
		Shards: 2,
		Churn:  ChurnConfig{OpenWindow: 500 * units.Millisecond, CloseFrac: .1, CrashFrac: .2, StallFrac: .1},
		Stream: &StreamConfig{
			Window: 250 * units.Millisecond,
			Rules:  stream.Rules{P99Above: 100 * units.Millisecond},
			Sink:   stream.NewBatchExporter(io.Discard, 0),
		},
		Overload:    &overload.Config{Budgets: overload.Budgets{RetainedSamples: 40 * conns}},
		ExportQueue: &overload.QueueConfig{},
		Waterfall:   wf,
	}
}

// TestNoRecorderHookAfterAbsorb: the drain shuts each shard's engine
// down before the caller's waterfall absorbs the shard's recorders, so
// no recorder hook runs on an absorbed recorder. Absorb re-parents every
// recorder to the caller's waterfall, and every hook that records reads
// its waterfall's clock: the caller's clock here counts its reads, and
// must read none. Every recorder is attached for the whole run.
func TestNoRecorderHookAfterAbsorb(t *testing.T) {
	testutil.NoLeaks(t)
	reads := 0
	wf := waterfall.New()
	wf.SetClock(func() units.Time { reads++; return 0 })
	cfg := testConfig(5, 8)
	cfg.Duration, cfg.Shards, cfg.Waterfall = 2*units.Second, 2, wf
	New(cfg).Run()
	if reads != 0 {
		t.Fatalf("recorder hooks read the caller's clock %d times after Absorb", reads)
	}
	if agg := wf.Aggregate(); agg.Ranges == 0 || agg.Resizes == 0 {
		t.Fatalf("the absorbed recorders saw %d ranges, %d resizes: the run shows nothing", agg.Ranges, agg.Resizes)
	}
}

// drainedBytesPerConn bounds what a drained fleet_churn-shaped fleet
// holds per connection: its result logs, held checkpoints, tiers,
// escalators and recorder aggregates, not the connections' simulated
// stacks or retained waterfall ranges. At 64 connections, 2 s and seed 1
// it holds 24.6 KB a connection; when drained fleets kept their engines,
// packet pools and every recorder's ranges and markers, 64.5 KB.
const drainedBytesPerConn = 36 << 10

// TestDrainedFleetRetains measures the heap a drained fleet holds per
// connection — HeapAlloc with the fleet, its result and the caller's
// waterfall referenced, less HeapAlloc once they are dropped — and holds
// it under drainedBytesPerConn.
func TestDrainedFleetRetains(t *testing.T) {
	testutil.NoLeaks(t)
	const conns = 64
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	wf := waterfall.New()
	f := New(drainedChurnConfig(1, conns, wf))
	res := f.Run()
	if res.Escalations == 0 || res.Restarts == 0 || wf.Aggregate().Ranges == 0 {
		t.Fatalf("escalations %d, restarts %d, ranges %d: the run shows nothing",
			res.Escalations, res.Restarts, wf.Aggregate().Ranges)
	}
	held := heap()
	runtime.KeepAlive(f)
	runtime.KeepAlive(res)
	runtime.KeepAlive(wf)
	perConn := (int64(held) - int64(heap())) / conns
	t.Logf("a drained fleet holds %d B a connection", perConn)
	if perConn > drainedBytesPerConn {
		t.Fatalf("a drained fleet holds %d B a connection, bound %d", perConn, drainedBytesPerConn)
	}
}
