package reqtrace_test

import (
	"runtime"
	"testing"

	"element/internal/reqtrace"
	"element/internal/units"
	"element/internal/waterfall"
)

// spanCycler drives full request cycles — Begin, leg declaration, range
// finalization, completion — through the tracer hot path. Constant leg
// latency keeps the slow-heap in its never-admit steady state, and a
// small record cap keeps the retention in its decimating steady state,
// so a warm cycler exercises every hot-path branch without allocating.
type spanCycler struct {
	tr   *reqtrace.Tracer
	f    *reqtrace.Flow
	now  units.Time
	seq  uint64
	next uint64
}

func newSpanCycler() *spanCycler {
	c := &spanCycler{tr: reqtrace.New()}
	c.tr.MaxRecords = 1 << 12
	c.tr.SetClock(func() units.Time { return c.now })
	c.f = c.tr.Flow(0, nil)
	return c
}

func (c *spanCycler) cycle() {
	c.now = c.now.Add(1000)
	r := c.tr.Begin(c.seq, 1, nil)
	c.seq++
	start := c.next
	c.next += 1024
	c.f.Send(r, start, c.next)
	var b waterfall.Bounds
	for i := range b {
		b[i] = c.now.Add(units.Duration(100 * (i + 1)))
	}
	c.f.RecordRange(start, c.next, 0, b)
}

// warm runs the cycler past every amortized growth: record retention
// reaches its cap and settles into stride decimation, the slow heap
// fills, and the leg FIFO's compaction period is exercised.
func (c *spanCycler) warm() {
	for i := 0; i < 1<<13; i++ {
		c.cycle()
	}
}

// TestRecordRangeZeroAlloc pins the span-record hot path at zero
// allocations per request cycle in steady state — the contract that
// lets tracers run inside fleet shards at full rate.
func TestRecordRangeZeroAlloc(t *testing.T) {
	c := newSpanCycler()
	c.warm()
	if avg := testing.AllocsPerRun(1000, c.cycle); avg != 0 {
		t.Fatalf("span cycle allocates %.2f objects/op in steady state, want 0", avg)
	}
}

// BenchmarkReqtraceSpan measures one full request span cycle (issue,
// leg declaration, range finalization, completion, sketch observation).
// Gated by benchgate with a zero-alloc baseline.
func BenchmarkReqtraceSpan(b *testing.B) {
	c := newSpanCycler()
	c.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.cycle()
	}
}

// TestRequestRecordBytes pins what a retained request costs in bytes on a
// fan-out run as a fleet drives it: 32 768 requests of 8 legs each on a
// shard tracer, absorbed into the caller's, then read back by Records.
// Everything the tracer allocates counts — its slow span trees, sketches,
// leg FIFOs — and it must come to at most 160 B a request. A request is
// kept packed (about 31 B) and decoded once into an 88 B Record; kept as
// Records, append-grown and copied again at the merge, it took about
// 500 B.
func TestRequestRecordBytes(t *testing.T) {
	const requests, legs, perRequest = 32768, 8, 160
	allocated := ^uint64(0)
	for try := 0; try < 3; try++ { // the least of three, should anything else allocate meanwhile
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		now := units.Time(0)
		sh := reqtrace.New()
		sh.SetClock(func() units.Time { return now })
		flows := make([]*reqtrace.Flow, legs)
		for i := range flows {
			flows[i] = sh.Flow(i, nil)
		}
		for i := uint64(0); i < requests; i++ {
			now = now.Add(units.Millisecond)
			r := sh.Begin(i%8<<32|i, legs, nil)
			for _, f := range flows {
				f.Send(r, i*256, (i+1)*256)
			}
			for l, f := range flows {
				var b waterfall.Bounds
				h := i*2654435761 + uint64(l)*40503
				for k := range b {
					b[k] = now.Add(units.Duration(uint64(k+1) * (1000 + h%(50_000*uint64(k+1)))))
				}
				f.RecordRange(i*256, (i+1)*256, 0, b)
			}
		}
		root := reqtrace.New()
		root.Absorb(sh)
		recs := root.Records()
		runtime.ReadMemStats(&after)
		if len(recs) != requests {
			t.Fatalf("%d requests retained %d records, want all", requests, len(recs))
		}
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	if allocated > requests*perRequest {
		t.Fatalf("%d retained requests allocated %d B, %.1f B each, want at most %d",
			requests, allocated, float64(allocated)/requests, perRequest)
	}
	t.Logf("%.1f B per retained request", float64(allocated)/requests)
}
