package core

import (
	"testing"
	"unsafe"

	"element/internal/cc"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/tcpinfo"
	"element/internal/trace"
	"element/internal/units"
)

// fakeSource scripts TCP_INFO snapshots for white-box tracker tests.
type fakeSource struct {
	info   tcpinfo.TCPInfo
	sndBuf []int // recorded SetSndBuf calls
}

func (f *fakeSource) GetsockoptTCPInfo() tcpinfo.TCPInfo { return f.info }
func (f *fakeSource) SetSndBuf(b int)                    { f.sndBuf = append(f.sndBuf, b) }

func TestSenderTrackerMatchesWritesAgainstBest(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})

	// App writes 5000 bytes at t=0.
	eng.Schedule(0, func() { tr.OnWrite(5000) })
	// At t=35ms the TCP layer has moved 3000 bytes (acked) + 2 unacked
	// segments out: B_est = 5000 ≥ write record → delay sample ≈ 35-40ms
	// (measured at the 40ms poll).
	eng.Schedule(35*units.Millisecond, func() {
		src.info.BytesAcked = 3000
		src.info.Unacked = 2
	})
	eng.RunUntil(units.Time(100 * units.Millisecond))
	est := tr.Estimates().Series()
	if len(est) != 1 {
		t.Fatalf("samples = %d, want 1", len(est))
	}
	if est[0].Delay != 40*units.Millisecond {
		t.Fatalf("delay = %v, want 40ms (matched at the poll after 35ms)", est[0].Delay)
	}
	if tr.Pending() != 0 {
		t.Fatalf("pending = %d", tr.Pending())
	}
	tr.Stop()
	eng.Shutdown()
}

func TestSenderTrackerDoesNotMatchEarly(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	eng.Schedule(0, func() { tr.OnWrite(5000) })
	// B_est stays at 4999 < 5000: no sample may be emitted.
	src.info.BytesAcked = 4999
	eng.RunUntil(units.Time(200 * units.Millisecond))
	if n := len(tr.Estimates().Series()); n != 0 {
		t.Fatalf("samples = %d, want 0", n)
	}
	if tr.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", tr.Pending())
	}
	tr.Stop()
	eng.Shutdown()
}

func TestReceiverTrackerRecordsGrowthAndMatchesReads(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{RcvMSS: 1000}}
	tr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	// 3 segments arrive at TCP by t=5ms: B_est = 3000, recorded at 10ms.
	eng.Schedule(5*units.Millisecond, func() { src.info.SegsIn = 3 })
	// The app reads 2500 bytes at t=50ms: the covering record is the
	// 3000-byte one from t=10ms → delay 40ms.
	eng.Schedule(50*units.Millisecond, func() { tr.OnRead(2500, 2500, false) })
	eng.RunUntil(units.Time(100 * units.Millisecond))
	est := tr.Estimates().Series()
	if len(est) != 1 {
		t.Fatalf("samples = %d, want 1", len(est))
	}
	if est[0].Delay != 40*units.Millisecond {
		t.Fatalf("delay = %v, want 40ms", est[0].Delay)
	}
	tr.Stop()
	eng.Shutdown()
}

func TestReceiverTrackerDiscardsCoveredRecords(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{RcvMSS: 1000}}
	tr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	eng.Schedule(5*units.Millisecond, func() { src.info.SegsIn = 1 })  // 1000 @10ms
	eng.Schedule(15*units.Millisecond, func() { src.info.SegsIn = 2 }) // 2000 @20ms
	eng.Schedule(25*units.Millisecond, func() { src.info.SegsIn = 3 }) // 3000 @30ms
	// Read past the first two records: they are discarded, the sample
	// comes from the 3000 record.
	eng.Schedule(60*units.Millisecond, func() { tr.OnRead(2500, 2500, false) })
	eng.RunUntil(units.Time(100 * units.Millisecond))
	est := tr.Estimates().Series()
	if len(est) != 1 || est[0].Delay != 30*units.Millisecond {
		t.Fatalf("est = %+v, want one 30ms sample", est)
	}
	tr.Stop()
	eng.Shutdown()
}

// elementTestbed runs a Cubic bulk flow with ELEMENT and ground truth
// attached and returns everything needed for accuracy checks.
type elementTestbed struct {
	eng  *sim.Engine
	conn *stack.Conn
	col  *trace.Collector
	snd  *Sender
	rcv  *Receiver
}

func newElementTestbed(seed int64, rate units.Rate, rtt units.Duration, kind cc.Kind, minimize bool) *elementTestbed {
	eng := sim.New(seed)
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: rate, Delay: rtt / 2},
		Reverse: netem.LinkConfig{Rate: rate, Delay: rtt / 2},
	})
	net := stack.NewNet(eng, path)
	col := trace.New(eng)
	conn := stack.Dial(net, stack.ConnConfig{
		CC:            kind,
		SenderHooks:   col.SenderHooks(),
		ReceiverHooks: col.ReceiverHooks(),
	})
	tb := &elementTestbed{eng: eng, conn: conn, col: col}
	tb.snd = AttachSender(eng, conn.Sender, Options{Minimize: minimize})
	tb.rcv = AttachReceiver(eng, conn.Receiver, Options{})
	eng.Spawn("writer", func(p *sim.Proc) {
		for tb.snd.Send(p, 16<<10).Size > 0 {
		}
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		for tb.rcv.Read(p, 1<<20).Size > 0 {
		}
	})
	return tb
}

// accuracy compares an estimate series against ground truth: it returns
// 1 - mean(|err|)/mean(truth), the paper's notion of estimation accuracy.
func accuracy(est, truth stats.Series) float64 {
	if len(est) == 0 || len(truth) == 0 {
		return 0
	}
	var errSum float64
	var n int
	for _, s := range est {
		gt, ok := truth.At(s.At)
		if !ok {
			continue
		}
		d := (s.Delay - gt).Seconds()
		if d < 0 {
			d = -d
		}
		errSum += d
		n++
	}
	if n == 0 {
		return 0
	}
	meanErr := errSum / float64(n)
	meanTruth := truth.Mean().Seconds()
	if meanTruth == 0 {
		return 0
	}
	return 1 - meanErr/meanTruth
}

func TestElementSenderAccuracyVsGroundTruth(t *testing.T) {
	tb := newElementTestbed(11, 10*units.Mbps, 50*units.Millisecond, cc.KindCubic, false)
	tb.eng.RunUntil(units.Time(40 * units.Second))
	tb.eng.Shutdown()

	est := tb.snd.Estimates().Series()
	truth := tb.col.SenderDelay()
	if len(est) < 100 {
		t.Fatalf("only %d estimates", len(est))
	}
	acc := accuracy(est, truth)
	// The paper reports >90% sender-side accuracy; allow slack for the
	// different testbed while still requiring a tight match.
	if acc < 0.85 {
		t.Fatalf("sender accuracy %.3f, want ≥ 0.85 (est mean %v, truth mean %v)",
			acc, est.Mean(), truth.Mean())
	}
}

func TestElementReceiverAccuracyVsGroundTruth(t *testing.T) {
	tb := newElementTestbed(12, 10*units.Mbps, 50*units.Millisecond, cc.KindCubic, false)
	tb.eng.RunUntil(units.Time(40 * units.Second))
	tb.eng.Shutdown()

	est := tb.rcv.Estimates().Series()
	truth := tb.col.ReceiverDelay()
	if len(est) < 50 {
		t.Fatalf("only %d estimates", len(est))
	}
	// Algorithm 2 emits samples when reads lag the TCP layer — i.e. during
	// out-of-order (loss) episodes — and each sample tracks the *oldest*
	// waiting bytes. Ground truth at the same read event is bimodal (the
	// hole bytes have ≈0 delay, the queued bytes the full wait), so the
	// right comparison is against the maximum true wait in a small window
	// before the estimate.
	window := 150 * units.Millisecond
	var errSum, truthSum float64
	n := 0
	j := 0
	for _, s := range est {
		var gtMax units.Duration
		for j < len(truth) && truth[j].At <= s.At {
			j++
		}
		for k := j - 1; k >= 0 && truth[k].At >= s.At.Add(-window); k-- {
			if truth[k].Delay > gtMax {
				gtMax = truth[k].Delay
			}
		}
		if gtMax == 0 {
			continue
		}
		d := (s.Delay - gtMax).Seconds()
		if d < 0 {
			d = -d
		}
		errSum += d
		truthSum += gtMax.Seconds()
		n++
	}
	if n < 20 {
		t.Fatalf("only %d comparable estimates", n)
	}
	relErr := errSum / truthSum
	if relErr > 0.30 {
		t.Fatalf("receiver relative estimation error %.1f%% (mean err %.3fs over %d samples)",
			100*relErr, errSum/float64(n), n)
	}
}

func TestElementReceiverQuietWithoutLoss(t *testing.T) {
	// Vegas never overflows the queue: reads stay caught up with the TCP
	// layer, so Algorithm 2 should emit few samples and only small delays.
	tb := newElementTestbed(15, 10*units.Mbps, 50*units.Millisecond, cc.KindVegas, false)
	tb.eng.RunUntil(units.Time(20 * units.Second))
	tb.eng.Shutdown()
	for _, s := range tb.rcv.Estimates().Series() {
		if s.Delay > 60*units.Millisecond {
			t.Fatalf("receiver estimate %v without any loss", s.Delay)
		}
	}
}

func TestMinimizerCutsSenderDelayKeepsThroughput(t *testing.T) {
	base := newElementTestbed(13, 10*units.Mbps, 50*units.Millisecond, cc.KindCubic, false)
	base.eng.RunUntil(units.Time(40 * units.Second))
	base.eng.Shutdown()

	min := newElementTestbed(13, 10*units.Mbps, 50*units.Millisecond, cc.KindCubic, true)
	min.eng.RunUntil(units.Time(40 * units.Second))
	min.eng.Shutdown()

	baseDelay := base.col.SenderDelay().Mean()
	minDelay := min.col.SenderDelay().Mean()
	if minDelay*5 > baseDelay {
		t.Fatalf("minimizer: sender delay %v not ≪ baseline %v", minDelay, baseDelay)
	}

	baseTput := float64(base.conn.Receiver.ReadCum())
	minTput := float64(min.conn.Receiver.ReadCum())
	if minTput < 0.85*baseTput {
		t.Fatalf("minimizer throughput %.1f%% of baseline", 100*minTput/baseTput)
	}
}

func TestMinimizerWirelessSetsBuffer(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{
		SndMSS: 1460, SndCwnd: 20, RTT: 50 * units.Millisecond, SndBuf: 1 << 20,
	}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	m := NewMinimizer(eng, src, tr, MinimizerConfig{Wireless: true})
	// Feed delay measurements via the tracker: one write matched per poll.
	cum := uint64(0)
	var feeder func()
	feeder = func() {
		cum += 1460
		tr.OnWrite(cum)
		src.info.BytesAcked = cum // matched at the next poll
		eng.Schedule(10*units.Millisecond, feeder)
	}
	eng.Schedule(0, feeder)
	eng.RunUntil(units.Time(2 * units.Second))
	if len(src.sndBuf) == 0 {
		t.Fatal("wireless minimizer never called SetSndBuf")
	}
	if m.Updates() == 0 {
		t.Fatal("no target updates ran")
	}
	if m.Target() <= 0 {
		t.Fatalf("target = %d", m.Target())
	}
	m.Stop()
	tr.Stop()
	eng.Shutdown()
}

func TestMinimizerTargetLaw(t *testing.T) {
	// With D_avg ≫ D_thr the target must shrink; with D_avg ≪ D_thr it
	// must grow back toward the β·cwnd·mss cap (equation (1)).
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{
		SndMSS: 1000, SndCwnd: 100, RTT: 10 * units.Millisecond, SndBuf: 500000,
	}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	m := NewMinimizer(eng, src, tr, MinimizerConfig{})
	m.Davg = 200 * units.Millisecond // 8× D_thr
	m.Starget = 400000
	m.tlast = 0
	eng.RunUntil(units.Time(50 * units.Millisecond)) // several checks
	if m.Target() >= 400000 {
		t.Fatalf("target did not shrink under high delay: %d", m.Target())
	}
	shrunk := m.Target()
	m.Davg = units.Millisecond // far below D_thr
	eng.RunUntil(units.Time(500 * units.Millisecond))
	if m.Target() <= shrunk {
		t.Fatalf("target did not grow under low delay: %d", m.Target())
	}
	cap := int(DefaultBeta * float64(100*1000))
	if m.Target() > cap {
		t.Fatalf("target %d above β·cwnd·mss cap %d", m.Target(), cap)
	}
	m.Stop()
	tr.Stop()
	eng.Shutdown()
}

func TestInterposedTransparency(t *testing.T) {
	// A legacy app written against StreamWriter must behave identically
	// whether handed a raw socket or the ELEMENT interposition, except for
	// the pacing effect.
	eng := sim.New(3)
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
		Reverse: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
	})
	net := stack.NewNet(eng, path)
	conn := stack.Dial(net, stack.ConnConfig{CC: cc.KindCubic})
	snd := AttachSender(eng, conn.Sender, Options{Minimize: true})
	var w StreamWriter = Interposed{S: snd}
	total := 0
	eng.Spawn("legacy-writer", func(p *sim.Proc) {
		for {
			n := w.Write(p, 16<<10)
			if n == 0 {
				return
			}
			total += n
		}
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		for conn.Receiver.Read(p, 1<<20) > 0 {
		}
	})
	eng.RunUntil(units.Time(10 * units.Second))
	eng.Shutdown()
	if total == 0 {
		t.Fatal("legacy writer made no progress through the interposition")
	}
	if sleeps, _ := snd.Min.Sleeps(); sleeps == 0 {
		t.Fatal("interposed minimizer never paced")
	}
}

func TestRetInfoFields(t *testing.T) {
	tb := newElementTestbed(14, 10*units.Mbps, 50*units.Millisecond, cc.KindCubic, false)
	tb.eng.RunUntil(units.Time(10 * units.Second))
	ri := tb.snd.retinfo(1000) // snapshot as Send would assemble it
	tb.eng.Shutdown()
	if ri.Size == 0 || ri.Cwnd == 0 || ri.RTT <= 0 || ri.Throughput <= 0 {
		t.Fatalf("incomplete RetInfo: %+v", ri)
	}
	if ri.BufDelay <= 0 {
		t.Fatalf("BufDelay = %v, want > 0 under bufferbloat", ri.BufDelay)
	}
	// Throughput should be within a factor of ~2 of the 10 Mbps line.
	if ri.Throughput < 3e6 || ri.Throughput > 12e6 {
		t.Fatalf("Throughput = %.2f Mbps", ri.Throughput/1e6)
	}
}

func TestTrackerPollIntervalAffectsResolution(t *testing.T) {
	run := func(interval units.Duration) int {
		eng := sim.New(5)
		src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000}}
		tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: interval})
		eng.RunUntil(units.Time(units.Second))
		n := tr.Polls()
		tr.Stop()
		eng.Shutdown()
		return n
	}
	fast := run(time1ms())
	slow := run(100 * units.Millisecond)
	if fast < 900 || slow > 11 {
		t.Fatalf("polls: fast=%d slow=%d", fast, slow)
	}
}

func time1ms() units.Duration { return units.Millisecond }

// TestSeriesIsProjectionOfLog holds the single-log design: Series is the
// {At, Delay, Bytes} projection of Log, sample for sample, for both
// trackers over a lossy transfer (Cubic overflowing the bufferbloated
// FIFO) long enough to chunk the sender's log.
func TestSeriesIsProjectionOfLog(t *testing.T) {
	tb := newElementTestbed(12, 10*units.Mbps, 50*units.Millisecond, cc.KindCubic, false)
	tb.eng.RunUntil(units.Time(40 * units.Second))
	tb.eng.Shutdown()
	for _, tc := range []struct {
		name string
		est  *Estimates
		min  int
	}{{"sender", tb.snd.Estimates(), 1024}, {"receiver", tb.rcv.Estimates(), 50}} {
		series, log := tc.est.Series(), tc.est.Log()
		if len(log) < tc.min {
			t.Fatalf("%s: %d measurements, want ≥ %d", tc.name, len(log), tc.min)
		}
		if len(series) != len(log) {
			t.Fatalf("%s: %d series samples but %d log entries", tc.name, len(series), len(log))
		}
		for i, m := range log {
			if want := (stats.Sample{At: m.At, Delay: m.Delay, Bytes: m.Bytes}); series[i] != want {
				t.Fatalf("%s: sample %d is %+v, log projects to %+v", tc.name, i, series[i], want)
			}
			if m.Bytes <= 0 {
				t.Fatalf("%s: measurement %d has weight %d", tc.name, i, m.Bytes)
			}
		}
	}
}

// TestMeasurementSize pins the 56 B a Measurement costs: streaming fleets
// hold millions of them, and Bytes fits only because Cwnd and Ssthresh
// are int32.
func TestMeasurementSize(t *testing.T) {
	if n := unsafe.Sizeof(Measurement{}); n > 56 {
		t.Fatalf("Measurement is %d B, want ≤ 56", n)
	}
}
