package exp

import (
	"runtime"
	"testing"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/stats"
	"element/internal/telemetry"
	"element/internal/units"
)

// bulkCleanShape is the bulk_clean workload's scenario: four CUBIC bulk
// flows through a FIFO, the collector's three truth series and both
// trackers' logs at their longest.
func bulkCleanShape(dur units.Duration) ScenarioConfig {
	flows := make([]FlowSpec, 4)
	for i := range flows {
		flows[i] = FlowSpec{CC: cc.KindCubic, Element: true}
	}
	return ScenarioConfig{Seed: 1, Rate: 100 * units.Mbps, RTT: 20 * units.Millisecond,
		Disc: aqm.KindFIFO, Duration: dur, Flows: flows}
}

// logBytes is what a stats.Log allocates to hold s, appended one entry at
// a time as the run appended it: the least of three builds, should
// anything else allocate meanwhile.
func logBytes[T stats.Entry[T]](s []T) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		var l stats.Log[T]
		runtime.ReadMemStats(&before)
		for _, v := range s {
			l.Append(v)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(&l)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestResultLogBytes pins what the result logs of a bulk_clean-shaped run
// cost per entry they keep, chunks, index and all: at most 8 B a truth
// sample (a stats.Sample is 24 B) and 7.5 B a measurement (a
// core.Measurement is 56 B; 7.32 B measured, 8.09 B were the codec not
// to predict ErrBound's jitter term, 13.38 B with no mask either). Each
// series is rebuilt from the run's own values, so the logs' bytes are
// counted apart from the simulation's.
func TestResultLogBytes(t *testing.T) {
	s := Build(bulkCleanShape(10 * units.Second))
	s.Run()
	var truthBytes, truthN, estBytes, estN uint64
	for _, fr := range s.Flows {
		for _, series := range []stats.Series{fr.GT.SenderDelay(), fr.GT.NetworkDelay(), fr.GT.ReceiverDelay()} {
			truthBytes += logBytes(series)
			truthN += uint64(len(series))
		}
		for _, est := range []*core.Estimates{fr.Sender.Estimates(), fr.Receiver.Estimates()} {
			log := est.Log()
			estBytes += logBytes(log)
			estN += uint64(len(log))
		}
	}
	if truthN < 100_000 || estN < 10_000 {
		t.Fatalf("%d truth samples, %d measurements: too few to measure a per-entry cost", truthN, estN)
	}
	perTruth, perEst := float64(truthBytes)/float64(truthN), float64(estBytes)/float64(estN)
	t.Logf("truth: %d samples, %.2f B each; estimates: %d measurements, %.2f B each", truthN, perTruth, estN, perEst)
	if perTruth > 8 {
		t.Errorf("truth logs allocate %.2f B per sample, want at most 8", perTruth)
	}
	if perEst > 7.5 {
		t.Errorf("estimate logs allocate %.2f B per measurement, want at most 7.5", perEst)
	}
}

// TestPackedGradeMatchesSlices: the packed graders (core.CheckSenderLog,
// core.CheckReceiverLog) over each flow's packed truth and its estimates
// packed agree with the slice graders over the same series decoded,
// BoundCheck and Coverage alike, on the lossy_mixed shape — BBR overdriving
// CoDel, SACK recovery, a minimizer flow beside three ELEMENT ones.
func TestPackedGradeMatchesSlices(t *testing.T) {
	s := Build(ScenarioConfig{
		Seed: 1, Rate: 50 * units.Mbps, RTT: 40 * units.Millisecond,
		Disc: aqm.KindCoDel, Duration: 4 * units.Second,
		Flows: []FlowSpec{
			{CC: cc.KindCubic, Element: true},
			{CC: cc.KindCubic, Minimize: true},
			{CC: cc.KindBBR, Element: true},
			{CC: cc.KindReno, Element: true},
		},
		Telemetry: telemetry.New(),
	})
	s.Run()
	checked := 0
	for _, fr := range s.Flows {
		if fr.Sender == nil {
			continue
		}
		sndTruth, rcvTruth := fr.GT.SenderLog(), fr.GT.ReceiverLog()
		sndEst, rcvEst := fr.Sender.Estimates().Log(), fr.Receiver.Estimates().Log()
		snd, rcv := pack(sndEst), pack(rcvEst)
		for b := 1; b*stats.LogBlock < sndTruth.Len(); b++ {
			// Windows from one block edge of the truth to the next.
			at := sndTruth.BlockTime(b)
			snd.Append(core.Measurement{At: at, Delay: units.Duration(b%7) * units.Millisecond,
				Confidence: core.ConfidenceHigh, ErrBound: max(at.Sub(sndTruth.BlockTime(b-1))-2*core.DefaultInterval, 0)})
		}
		bc, _ := core.CheckSenderLog(snd, sndTruth, 0)
		if want := core.CheckSenderBounds(snd.Collect(), fr.GT.SenderDelay(), 0); bc != want {
			t.Fatalf("flow %d sender: packed grade %+v, slices %+v", fr.Conn.FlowID, bc, want)
		}
		bc, _ = core.CheckReceiverLog(rcv, rcvTruth)
		if want := core.CheckReceiverBounds(rcvEst, fr.GT.ReceiverDelay()); bc != want {
			t.Fatalf("flow %d receiver: packed grade %+v, slices %+v", fr.Conn.FlowID, bc, want)
		}
		checked += bc.Checked
	}
	if checked == 0 {
		t.Fatal("no receiver sample was checked: the comparison pins nothing")
	}
}

func pack[T stats.Entry[T]](s []T) *stats.Log[T] {
	var l stats.Log[T]
	for _, v := range s {
		l.Append(v)
	}
	return &l
}
