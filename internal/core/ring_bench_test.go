package core

import (
	"testing"

	"element/internal/sim"
	"element/internal/tcpinfo"
	"element/internal/units"
)

// BenchmarkRingMatch is the record hot path in isolation, in the regime
// the paper is about: a drain that lags its source, so the FIFO carries a
// standing backlog of slow data waiting to be matched. Per op, a batch of
// cumulative records is pushed and the batch that fell below the read
// cursor is match-swept away, with `backlog` records permanently in
// flight between the two. impl=ring is the shipping ring buffer
// (binary-search boundary + O(1) bulk discard, no zeroing, no copies);
// impl=slice is the pre-ring slice FIFO (kept as the property-test
// oracle), whose per-pop slot zeroing and periodic compaction copies of
// the whole backlog are exactly what the ring deletes. The ring must
// report 0 allocs/op; the ratio between the two is the number quoted in
// README's Performance table.
func BenchmarkRingMatch(b *testing.B) {
	const (
		batch   = 128
		backlog = 4096
		mss     = 1460
	)
	b.Run("impl=ring", func(b *testing.B) {
		f := fifo{cap: DefaultRecordCap}
		cum := uint64(0)
		for i := 0; i < backlog; i++ {
			cum += mss
			f.push(record{bytes: cum, at: units.Time(cum)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				cum += mss
				f.push(record{bytes: cum, at: units.Time(cum)})
			}
			n := f.searchAbove(cum - backlog*mss)
			f.discard(n)
			if n != batch {
				b.Fatalf("matched %d records, want %d", n, batch)
			}
		}
	})
	b.Run("impl=slice", func(b *testing.B) {
		f := sliceFifo{cap: DefaultRecordCap}
		cum := uint64(0)
		for i := 0; i < backlog; i++ {
			cum += mss
			f.push(record{bytes: cum, at: units.Time(cum)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				cum += mss
				f.push(record{bytes: cum, at: units.Time(cum)})
			}
			limit := cum - backlog*mss
			n := 0
			for !f.empty() && f.front().bytes <= limit {
				f.pop()
				n++
			}
			if n != batch {
				b.Fatalf("matched %d records, want %d", n, batch)
			}
		}
	})
}

// TestPollPathZeroAllocs pins the tentpole claim with the runtime's own
// accounting: a full tracker iteration — OnWrite, sanitized TCP_INFO
// poll, binary-search match, sample emission and the drain the fleets run
// after every poll (Estimates.DrainLog) — performs zero heap allocations
// once the drained log has kept its chunk. Any future allocation on this
// path fails the test (and the bench gate).
func TestPollPathZeroAllocs(t *testing.T) {
	const runs = 5000
	emitted := 0
	drain := func(Measurement) { emitted++ }

	t.Run("sender", func(t *testing.T) {
		eng := sim.New(1)
		src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1460, SndCwnd: 100, RTT: 50 * units.Millisecond}}
		tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Detached: true})
		cum := uint64(0)
		step := func() {
			cum += 1460
			tr.OnWrite(cum)
			src.info.BytesAcked = cum
			tr.PollOnce()
			tr.Estimates().DrainLog(drain)
		}
		// Settle the ring, the rate EWMA, the sanitizer state and the
		// drained log's chunk first.
		for i := 0; i < 64; i++ {
			step()
		}
		emitted = 0
		if avg := testing.AllocsPerRun(runs, step); avg != 0 {
			t.Fatalf("sender poll path allocates %.2f times per iteration, want 0", avg)
		}
		if emitted < runs {
			t.Fatalf("only %d samples emitted; the alloc-free loop is not exercising the match path", emitted)
		}
	})

	t.Run("receiver", func(t *testing.T) {
		eng := sim.New(1)
		src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1460, RcvMSS: 1460, SndCwnd: 100}}
		tr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Detached: true})
		cum := uint64(0)
		step := func() {
			// One segment arrives, the poll records it, and the app reads up
			// to mid-segment: the sweep discards the matched prefix and
			// samples against the record above.
			src.info.SegsIn++
			tr.PollOnce()
			cum = uint64(src.info.SegsIn)*1460 - 700
			tr.OnRead(cum, 1460, true)
			tr.Estimates().DrainLog(drain)
		}
		for i := 0; i < 64; i++ {
			step()
		}
		emitted = 0
		if avg := testing.AllocsPerRun(runs, step); avg != 0 {
			t.Fatalf("receiver poll path allocates %.2f times per iteration, want 0", avg)
		}
		if emitted < runs {
			t.Fatalf("only %d samples emitted; the alloc-free loop is not exercising the match path", emitted)
		}
	})
}
