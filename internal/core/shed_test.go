package core

import (
	"testing"

	"element/internal/sim"
	"element/internal/tcpinfo"
	"element/internal/units"
)

// TestSenderShedWidensBoundsMonotone pins the overload-governor contract
// on the sender tracker: every Shed counts a Sheds anomaly and widens the
// bounds of samples produced from records that sat through it — strictly
// monotone across consecutive sheds — while records pushed after the
// sheds recover the baseline bound once the estimator is clean again.
func TestSenderShedWidensBoundsMonotone(t *testing.T) {
	const interval = 10 * units.Millisecond
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: interval, Detached: true})

	// Baseline: one write matched with no degradation anywhere.
	tr.OnWrite(1000)
	eng.RunUntil(units.Time(interval))
	src.info.BytesAcked = 1000
	tr.PollOnce()
	base := tr.Estimates().Log()
	if len(base) != 1 {
		t.Fatalf("baseline samples = %d, want 1", len(base))
	}
	if base[0].Confidence != ConfidenceHigh {
		t.Fatalf("baseline confidence = %v, want high", base[0].Confidence)
	}
	baseBound := base[0].ErrBound

	// A record outstanding across two sheds: its eventual bound must admit
	// both guard windows, and the second shed must widen past the first.
	tr.OnWrite(2000)
	tr.Shed(5 * interval)
	afterOne := tr.StallCum
	tr.Shed(5 * interval)
	if tr.StallCum <= afterOne {
		t.Fatalf("stall debt not monotone across sheds: %v then %v", afterOne, tr.StallCum)
	}
	if n := tr.Anomalies().Sheds; n != 2 {
		t.Fatalf("Sheds = %d, want 2", n)
	}
	eng.RunUntil(units.Time(2 * interval))
	src.info.BytesAcked = 2000
	tr.PollOnce()
	s := tr.Estimates().Log()
	if len(s) != 2 {
		t.Fatalf("samples = %d, want 2", len(s))
	}
	shedded := s[1]
	if shedded.ErrBound < baseBound+10*interval {
		t.Fatalf("shed sample bound = %v, want ≥ baseline %v + 10 intervals", shedded.ErrBound, baseBound)
	}
	if shedded.Confidence == ConfidenceHigh {
		t.Fatalf("shed sample confidence = high, want degraded")
	}

	// Recovery: a record pushed after the sheds carries the post-shed
	// stall base, so its bound re-tightens to baseline + jitter slack.
	for i := 0; i < anomalyHoldoffPolls+1; i++ {
		eng.RunUntil(eng.Now().Add(interval))
		tr.PollOnce() // clean polls age out the anomaly holdoff
	}
	tr.OnWrite(3000)
	eng.RunUntil(eng.Now().Add(interval))
	src.info.BytesAcked = 3000
	tr.PollOnce()
	s = tr.Estimates().Log()
	rec := s[len(s)-1]
	// The recovered bound is the base quantization plus the per-sample
	// jitter slack — no shed debt.
	if rec.ErrBound >= shedded.ErrBound {
		t.Fatalf("post-recovery bound = %v did not re-tighten below shed bound %v", rec.ErrBound, shedded.ErrBound)
	}
	if got := tr.Anomalies().Sheds; got != 2 {
		t.Fatalf("Sheds after recovery = %d, want 2 (recovery must not count sheds)", got)
	}
	tr.Stop()
	eng.Shutdown()
}

// TestReceiverShedWidensBounds is the receiver-side half: a record that
// sat through a shed yields a sample whose bound admits the guard, and
// FoldOutage widens without counting a second anomaly.
func TestReceiverShedWidensBounds(t *testing.T) {
	const interval = 10 * units.Millisecond
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{RcvMSS: 1000}}
	tr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Interval: interval, Detached: true})

	src.info.SegsIn = 3 // B_est = 3000, recorded at the first poll
	eng.RunUntil(units.Time(interval))
	tr.PollOnce()
	tr.Shed(8 * interval)
	if n := tr.Anomalies().Sheds; n != 1 {
		t.Fatalf("Sheds = %d, want 1", n)
	}
	tr.FoldOutage(4 * interval)
	if n := tr.Anomalies().Sheds; n != 1 {
		t.Fatalf("Sheds after FoldOutage = %d, want 1 (fold must not re-count)", n)
	}
	eng.RunUntil(units.Time(5 * interval))
	tr.OnRead(2500, 2500, false)
	s := tr.Estimates().Log()
	if len(s) != 1 {
		t.Fatalf("samples = %d, want 1", len(s))
	}
	// Base receiver bound is 3 intervals; the record sat through a
	// 8-interval shed plus a 4-interval folded outage.
	if s[0].ErrBound < 3*interval+12*interval {
		t.Fatalf("bound = %v, want ≥ %v", s[0].ErrBound, 15*interval)
	}
	if s[0].Confidence == ConfidenceHigh {
		t.Fatalf("confidence = high, want degraded after shed")
	}
	tr.Stop()
	eng.Shutdown()
}

// TestRebaseCheckpointsForNewConnection pins the snapshot/resume rebase:
// byte-matching state is stripped, the audit survives, and restoring the
// rebased checkpoint against a fresh connection neither clamps the new
// flow's counters against the old flow's (which would freeze B_est) nor
// resurrects records from the old byte space.
func TestRebaseCheckpointsForNewConnection(t *testing.T) {
	const interval = 10 * units.Millisecond
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: interval, Detached: true})
	tr.OnWrite(50_000)
	eng.RunUntil(units.Time(interval))
	src.info.BytesAcked = 40_000
	src.info.SegsOut, src.info.SegsIn = 40, 40
	tr.PollOnce()
	tr.Shed(interval) // audit state worth carrying over
	cp := tr.Checkpoint().Rebase()
	tr.Stop()

	if len(cp.Records) != 0 || cp.CumWritten != 0 || cp.BestCache != 0 || cp.LastBest != 0 {
		t.Fatalf("rebase left byte-matching state: %+v", cp)
	}
	if cp.Sanitizer.Seen {
		t.Fatalf("rebase kept the sanitizer's last-snapshot clamps")
	}
	if cp.Sanitizer.Counts.Sheds != 1 {
		t.Fatalf("rebase lost the audit trail: %+v", cp.Sanitizer.Counts)
	}

	// Restore onto a brand-new connection starting at byte zero.
	eng2 := sim.New(2)
	src2 := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
	tr2 := RestoreSenderTracker(eng2, src2, cp, TrackerOptions{Interval: interval, Detached: true})
	if tr2.Anomalies().Restores != 1 {
		t.Fatalf("Restores = %d, want 1", tr2.Anomalies().Restores)
	}
	tr2.OnWrite(1000)
	eng2.RunUntil(units.Time(interval))
	src2.info.BytesAcked = 1000
	tr2.PollOnce()
	s := tr2.Estimates().Log()
	if len(s) != 1 {
		t.Fatalf("resumed tracker produced %d samples, want 1 (old-flow clamps must not freeze B_est)", len(s))
	}
	if s[0].Confidence == ConfidenceHigh {
		t.Fatalf("first resumed sample confidence = high, want degraded (Restores holdoff)")
	}
	if a := tr2.Anomalies(); a.Backwards != cp.Sanitizer.Counts.Backwards {
		t.Fatalf("new flow's low counters read as backwards jumps: %+v", a)
	}

	// Receiver rebase restores cleanly too.
	rtr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Interval: interval, Detached: true})
	rtr.PollOnce()
	rcp := rtr.Checkpoint().Rebase()
	rtr.Stop()
	if rcp.Prev != 0 || len(rcp.Records) != 0 || rcp.ExcBound != 0 {
		t.Fatalf("receiver rebase left byte state: %+v", rcp)
	}
	rtr2 := RestoreReceiverTracker(eng2, src2, rcp, TrackerOptions{Interval: interval, Detached: true})
	if rtr2.Anomalies().Restores != 1 {
		t.Fatalf("receiver Restores = %d, want 1", rtr2.Anomalies().Restores)
	}
	rtr2.Stop()
	eng.Shutdown()
	eng2.Shutdown()
}
