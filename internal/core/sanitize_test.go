package core

import (
	"testing"

	"element/internal/sim"
	"element/internal/tcpinfo"
	"element/internal/units"
)

// Satellite bugfix regression: a TCP_INFO counter jumping backwards
// between samples must be clamped to the last value with an anomaly
// counted, never crash the tracker or skew B_est downwards.
func TestSenderTrackerSurvivesBackwardsCounters(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})

	eng.Schedule(0, func() { tr.OnWrite(5000) })
	eng.Schedule(15*units.Millisecond, func() {
		src.info.BytesAcked = 3000
		src.info.Unacked = 2
	})
	// The counter jumps backwards (stats bug / wrap): the sanitizer must
	// clamp to 3000, keeping B_est at 5000, so the write still matches.
	eng.Schedule(25*units.Millisecond, func() {
		src.info.BytesAcked = 100
	})
	eng.RunUntil(units.Time(100 * units.Millisecond))

	if got := tr.Estimates().Series(); len(got) != 1 {
		t.Fatalf("samples = %d, want 1", len(got))
	}
	if tr.EstimatedTCPBytes() != 5000 {
		t.Fatalf("B_est = %d, want 5000 (clamped)", tr.EstimatedTCPBytes())
	}
	an := tr.Anomalies()
	if an.Backwards == 0 {
		t.Fatalf("backwards anomalies = 0, want > 0 (counts: %+v)", an)
	}
	tr.Stop()
	eng.Shutdown()
}

// Backwards counters must not underflow the throughput EWMA either: the
// uint64 delta BytesAcked-lastAcked would wrap to ~1.8e19 and poison the
// estimate forever.
func TestThroughputEstimateSurvivesBackwardsCounters(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, BytesAcked: 100000}}
	s := &Sender{eng: eng, sock: nil}
	s.Tracker = NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})

	eng.Schedule(10*units.Millisecond, func() {
		if tp := s.ThroughputEstimate(); tp <= 0 {
			t.Errorf("throughput = %v, want > 0", tp)
		}
	})
	eng.Schedule(20*units.Millisecond, func() {
		src.info.BytesAcked = 50 // backwards jump
		tp := s.ThroughputEstimate()
		if tp < 0 || tp > 1e12 {
			t.Errorf("throughput after backwards jump = %v, want sane", tp)
		}
	})
	eng.RunUntil(units.Time(50 * units.Millisecond))
	tr := s.Tracker
	tr.Stop()
	eng.Shutdown()
}

// A zero MSS mid-connection (handshake race, buggy kernels) must be
// substituted with the last good value rather than zeroing B_est.
func TestSanitizerSubstitutesZeroMSS(t *testing.T) {
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1448, RcvMSS: 1448}}
	san := newSanitizer(src)
	san.GetsockoptTCPInfo()
	src.info.SndMSS = 0
	ti := san.GetsockoptTCPInfo()
	if ti.SndMSS != 1448 {
		t.Fatalf("SndMSS = %d, want substituted 1448", ti.SndMSS)
	}
	if san.Anomalies().ZeroFields != 1 {
		t.Fatalf("ZeroFields = %d, want 1", san.Anomalies().ZeroFields)
	}
}

// Capability detection: BytesAcked stuck at zero while acked segments
// accumulate must flip the sanitizer to the fallback estimator — but in-
// flight segments during the first RTT must not trigger it.
func TestSanitizerFallsBackWhenBytesAckedAbsent(t *testing.T) {
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000}}
	san := newSanitizer(src)

	// First RTT: 10 segments out, all unacked. Not evidence of absence.
	src.info.SegsOut = 10
	src.info.Unacked = 10
	san.GetsockoptTCPInfo()
	if san.bytesAckedAbsent() {
		t.Fatal("capability marked absent during first flight")
	}

	// Segments acked (Unacked drains) with BytesAcked still 0: absent.
	src.info.Unacked = 2
	ti := san.GetsockoptTCPInfo()
	if !san.bytesAckedAbsent() {
		t.Fatal("capability not marked absent after acked segments with BytesAcked=0")
	}
	best, fallback := san.BEst(ti)
	if !fallback {
		t.Fatal("BEst not in fallback mode")
	}
	if best != 10*1000 {
		t.Fatalf("fallback B_est = %d, want 10000 (segs_out·mss)", best)
	}
}

// A kernel that does expose BytesAcked must never be misdetected as
// legacy, even if the first poll happens late in the connection.
func TestSanitizerKeepsPrimaryWhenBytesAckedPresent(t *testing.T) {
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, SegsOut: 500, BytesAcked: 400000}}
	san := newSanitizer(src)
	ti := san.GetsockoptTCPInfo()
	if san.bytesAckedAbsent() {
		t.Fatal("capability marked absent despite BytesAcked > 0")
	}
	if _, fallback := san.BEst(ti); fallback {
		t.Fatal("BEst in fallback mode despite BytesAcked > 0")
	}
}

// Fallback-mode sender samples must carry lowered confidence and widened
// bounds, and the fallback estimate must clamp to the bytes actually
// written (the segment-counter estimate can overshoot in app-limited
// flows).
func TestSenderTrackerFallbackSamplesAreWidened(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})

	eng.Schedule(0, func() { tr.OnWrite(4500) })
	eng.Schedule(5*units.Millisecond, func() {
		// 8 segments out, all acked per counters, BytesAcked stays 0:
		// capability probe flips, fallback B_est = 8000 > 4500 written →
		// overrun clamp to 4500 ≥ record → sample emitted.
		src.info.SegsOut = 8
	})
	eng.RunUntil(units.Time(100 * units.Millisecond))

	log := tr.Estimates().Log()
	if len(log) != 1 {
		t.Fatalf("samples = %d, want 1", len(log))
	}
	m := log[0]
	if m.Confidence == ConfidenceHigh {
		t.Fatalf("fallback sample confidence = %v, want < high", m.Confidence)
	}
	if m.ErrBound < 2*10*units.Millisecond {
		t.Fatalf("fallback ErrBound = %v, want ≥ base", m.ErrBound)
	}
	an := tr.Anomalies()
	if an.FallbackPolls == 0 {
		t.Fatalf("FallbackPolls = 0, want > 0 (counts: %+v)", an)
	}
	if an.Overruns == 0 {
		t.Fatalf("Overruns = 0, want > 0: B_est 8000 > 4500 written (counts: %+v)", an)
	}
	if tr.EstimatedTCPBytes() != 4500 {
		t.Fatalf("B_est = %d, want clamped to 4500", tr.EstimatedTCPBytes())
	}
	if !tr.DegradedMode() {
		t.Fatal("DegradedMode() = false, want true")
	}
	tr.Stop()
	eng.Shutdown()
}

// Stalled TCP_INFO (frozen snapshots) must widen the error bounds of the
// samples emitted when progress resumes: their delay includes up to the
// whole stall.
func TestSenderTrackerStallWidensBounds(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})

	eng.Schedule(0, func() { tr.OnWrite(1000) })
	// Snapshot frozen for 60 ms, then jumps.
	eng.Schedule(65*units.Millisecond, func() { src.info.BytesAcked = 1000 })
	eng.RunUntil(units.Time(200 * units.Millisecond))

	log := tr.Estimates().Log()
	if len(log) != 1 {
		t.Fatalf("samples = %d, want 1", len(log))
	}
	m := log[0]
	// ≥ 5 stalled polls × 10 ms on top of the 20 ms base.
	if m.ErrBound < 60*units.Millisecond {
		t.Fatalf("ErrBound = %v, want ≥ 60ms after a 60ms stall", m.ErrBound)
	}
	if tr.Anomalies().StalledPolls < 5 {
		t.Fatalf("StalledPolls = %d, want ≥ 5", tr.Anomalies().StalledPolls)
	}
	tr.Stop()
	eng.Shutdown()
}

// The pacer must trip into safe mode when D_measure goes predominantly
// low-confidence, and must not pace or rescale S_target while there.
func TestMinimizerSafeModeOnLowConfidence(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, SndCwnd: 10, SndBuf: 64000, RTT: 20 * units.Millisecond}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	min := NewMinimizer(eng, src, tr, MinimizerConfig{})

	// Feed the minimizer low-confidence measurements directly.
	eng.Schedule(0, func() {
		for i := 0; i < safeWindow; i++ {
			min.onMeasurement(Measurement{Delay: 50 * units.Millisecond, Confidence: ConfidenceLow})
		}
	})
	eng.RunUntil(units.Time(50 * units.Millisecond))
	if !min.SafeMode() {
		t.Fatal("SafeMode() = false after a window of low-confidence samples")
	}
	if min.SafeModeEntries() != 1 {
		t.Fatalf("SafeModeEntries = %d, want 1", min.SafeModeEntries())
	}
	// D_avg must not have absorbed the disclaimed delays.
	if min.AvgDelay() != 0 {
		t.Fatalf("D_avg = %v, want 0 (low-confidence samples ignored)", min.AvgDelay())
	}

	// Confidence recovers: a window of high-confidence samples exits safe
	// mode and resumes the EWMA.
	eng.Schedule(60*units.Millisecond, func() {
		for i := 0; i < safeWindow; i++ {
			min.onMeasurement(Measurement{Delay: 30 * units.Millisecond, Confidence: ConfidenceHigh})
		}
	})
	eng.RunUntil(units.Time(120 * units.Millisecond))
	if min.SafeMode() {
		t.Fatal("SafeMode() = true after confidence recovered")
	}
	if min.AvgDelay() == 0 {
		t.Fatal("D_avg = 0, want > 0 after high-confidence samples")
	}
	min.Stop()
	tr.Stop()
	eng.Shutdown()
}

// Receiver-side: the application reading bytes B_est claims TCP never
// received proves the estimator lags (GRO-style coalescing); the Lags
// anomaly must count and subsequent samples must be flagged.
func TestReceiverTrackerDetectsLag(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{RcvMSS: 1000}}
	tr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})

	eng.Schedule(5*units.Millisecond, func() { src.info.SegsIn = 2 }) // B_est = 2000
	// App reads 5000 > B_est: provable lag.
	eng.Schedule(30*units.Millisecond, func() { tr.OnRead(5000, 5000, false) })
	eng.RunUntil(units.Time(100 * units.Millisecond))

	if tr.Anomalies().Lags != 1 {
		t.Fatalf("Lags = %d, want 1 (counts: %+v)", tr.Anomalies().Lags, tr.Anomalies())
	}
	tr.Stop()
	eng.Shutdown()
}

// Clean input must keep samples at high confidence — hardening must not
// make the estimator cry wolf.
func TestCleanRunStaysHighConfidence(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})

	eng.Schedule(0, func() { tr.OnWrite(1000) })
	eng.Schedule(5*units.Millisecond, func() { src.info.BytesAcked = 1000 })
	eng.Schedule(15*units.Millisecond, func() { tr.OnWrite(2000) })
	eng.Schedule(18*units.Millisecond, func() { src.info.BytesAcked = 2000 })
	eng.RunUntil(units.Time(100 * units.Millisecond))

	log := tr.Estimates().Log()
	if len(log) != 2 {
		t.Fatalf("samples = %d, want 2", len(log))
	}
	for i, m := range log {
		if m.Confidence != ConfidenceHigh {
			t.Fatalf("sample %d confidence = %v, want high", i, m.Confidence)
		}
	}
	if tot := tr.Anomalies().Total(); tot != 0 {
		t.Fatalf("anomalies = %d, want 0 on clean input (%+v)", tot, tr.Anomalies())
	}
	tr.Stop()
	eng.Shutdown()
}
