package core

import (
	"math/rand"
	"testing"

	"element/internal/sim"
	"element/internal/tcpinfo"
	"element/internal/units"
)

// Property test for the bound-composition contract the calibration harness
// leans on: however degradations stack — Sheds, folded outages, a
// checkpoint/rebase/restore — every emitted sample's ErrBound stays
// non-negative, and a record that sits through a longer prefix of the same
// degradation sequence never reports a tighter bound than one that sat
// through a shorter prefix.

// composeOp is one degradation applied while a record is outstanding.
type composeOp struct {
	shed bool // true: Shed(arg); false: FoldOutage(arg)
	arg  units.Duration
}

// senderBoundAfter replays the first k ops of seq against a fresh sender
// tracker with one outstanding record and returns that record's sample.
func senderBoundAfter(t *testing.T, seed int64, seq []composeOp, k int) Measurement {
	t.Helper()
	const interval = 10 * units.Millisecond
	eng := sim.New(seed)
	defer eng.Shutdown()
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: interval, Detached: true})
	defer tr.Stop()

	tr.OnWrite(1000)
	eng.RunUntil(units.Time(interval))
	prevStall := tr.StallCum
	for _, op := range seq[:k] {
		if op.shed {
			tr.Shed(op.arg)
		} else {
			tr.FoldOutage(op.arg)
		}
		if tr.StallCum < prevStall {
			t.Fatalf("seed %d: stall debt shrank %v -> %v", seed, prevStall, tr.StallCum)
		}
		prevStall = tr.StallCum
	}
	eng.RunUntil(units.Time(2 * interval))
	src.info.BytesAcked = 1000
	tr.PollOnce()
	log := tr.Estimates().Log()
	if len(log) != 1 {
		t.Fatalf("seed %d k=%d: samples = %d, want 1", seed, k, len(log))
	}
	return log[0]
}

// TestComposedDegradationBoundsMonotone drives random Shed/FoldOutage
// sequences and checks the two invariants prefix by prefix.
func TestComposedDegradationBoundsMonotone(t *testing.T) {
	const interval = 10 * units.Millisecond
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq := make([]composeOp, 6)
		for i := range seq {
			seq[i] = composeOp{
				shed: rng.Intn(2) == 0,
				arg:  units.Duration(1+rng.Intn(10)) * interval,
			}
		}
		prev := units.Duration(-1)
		for k := 0; k <= len(seq); k++ {
			m := senderBoundAfter(t, seed, seq, k)
			if m.ErrBound < 0 {
				t.Fatalf("seed %d k=%d: negative ErrBound %v", seed, k, m.ErrBound)
			}
			if m.ErrBound < prev {
				t.Fatalf("seed %d: bound after %d ops (%v) tighter than after %d (%v)",
					seed, k, m.ErrBound, k-1, prev)
			}
			if k > 0 && m.Confidence == ConfidenceHigh {
				t.Fatalf("seed %d k=%d: degraded record still graded high", seed, k)
			}
			prev = m.ErrBound
		}
	}
}

// TestComposedDegradationReceiverAndRestore extends the property through
// the receiver tracker and a restore: folding outages onto sheds widens
// monotonically, and a rebase/restore keeps bounds non-negative with the
// first resumed sample degraded.
func TestComposedDegradationReceiverAndRestore(t *testing.T) {
	const interval = 10 * units.Millisecond
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New(seed)
		src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
		tr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Interval: interval, Detached: true})

		src.info.SegsIn = 2 // one outstanding record at the first poll
		eng.RunUntil(units.Time(interval))
		tr.PollOnce()
		prev := units.Duration(-1)
		for k := 0; k < 5; k++ {
			if rng.Intn(2) == 0 {
				tr.Shed(units.Duration(1+rng.Intn(8)) * interval)
			} else {
				tr.FoldOutage(units.Duration(1+rng.Intn(8)) * interval)
			}
			if tr.StallCum < prev {
				t.Fatalf("seed %d op %d: receiver stall debt shrank %v -> %v", seed, k, prev, tr.StallCum)
			}
			if tr.StallCum < 0 {
				t.Fatalf("seed %d op %d: negative stall debt %v", seed, k, tr.StallCum)
			}
			prev = tr.StallCum
		}
		eng.RunUntil(units.Time(3 * interval))
		tr.OnRead(1500, 1500, false)
		log := tr.Estimates().Log()
		if len(log) != 1 {
			t.Fatalf("seed %d: receiver samples = %d, want 1", seed, len(log))
		}
		if log[0].ErrBound < 0 {
			t.Fatalf("seed %d: negative receiver ErrBound %v", seed, log[0].ErrBound)
		}
		if log[0].Confidence == ConfidenceHigh {
			t.Fatalf("seed %d: record through %d degradations graded high", seed, 5)
		}

		// Restore after the degradations: the resumed tracker must keep the
		// contract from its first sample.
		cp := tr.Checkpoint().Rebase()
		tr.Stop()
		src2 := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
		tr2 := RestoreReceiverTracker(eng, src2, cp, TrackerOptions{Interval: interval, Detached: true})
		src2.info.SegsIn = 1
		eng.RunUntil(eng.Now().Add(interval))
		tr2.PollOnce()
		eng.RunUntil(eng.Now().Add(interval))
		tr2.OnRead(800, 800, false)
		for _, m := range tr2.Estimates().Log() {
			if m.ErrBound < 0 {
				t.Fatalf("seed %d: restored tracker emitted negative bound %v", seed, m.ErrBound)
			}
			if m.Confidence == ConfidenceHigh {
				t.Fatalf("seed %d: first post-restore sample graded high despite Restores holdoff", seed)
			}
		}
		tr2.Stop()
		eng.Shutdown()
	}
}
