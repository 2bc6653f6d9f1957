package core

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"element/internal/cc"
	"element/internal/faults"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/tcpinfo"
	"element/internal/trace"
	"element/internal/units"
)

func TestSenderCheckpointJSONRoundTrip(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000, BytesAcked: 1}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	eng.Schedule(0, func() { tr.OnWrite(5000) })
	eng.Schedule(15*units.Millisecond, func() { tr.OnWrite(9000) })
	eng.RunUntil(units.Time(50 * units.Millisecond))
	tr.Stop()

	cp := tr.Checkpoint()
	b, err := cp.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalSenderCheckpoint(b)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Fatalf("round trip changed checkpoint:\n  before %+v\n  after  %+v", cp, got)
	}
	eng.Shutdown()
}

func TestReceiverCheckpointJSONRoundTrip(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{RcvMSS: 1000}}
	tr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	eng.Schedule(5*units.Millisecond, func() { src.info.SegsIn = 3 })
	eng.Schedule(25*units.Millisecond, func() { src.info.SegsIn = 7 })
	eng.RunUntil(units.Time(50 * units.Millisecond))
	tr.Stop()

	cp := tr.Checkpoint()
	b, err := cp.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalReceiverCheckpoint(b)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Fatalf("round trip changed checkpoint:\n  before %+v\n  after  %+v", cp, got)
	}
	if len(cp.Records) == 0 {
		t.Fatalf("expected outstanding receive records in the checkpoint")
	}
	eng.Shutdown()
}

func TestMinimizerCheckpointJSONRoundTrip(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000, SndCwnd: 10, SndBuf: 64 << 10, RTT: 20 * units.Millisecond}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	m := NewMinimizer(eng, src, tr, MinimizerConfig{})
	eng.Schedule(0, func() { tr.OnWrite(4000) })
	eng.Schedule(5*units.Millisecond, func() { src.info.BytesAcked = 4000 })
	eng.RunUntil(units.Time(200 * units.Millisecond))
	tr.Stop()
	m.Stop()

	cp := m.Checkpoint()
	b, err := cp.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalMinimizerCheckpoint(b)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Fatalf("round trip changed checkpoint:\n  before %+v\n  after  %+v", cp, got)
	}
	if cp.Davg == 0 {
		t.Fatalf("expected a calibrated D_avg in the checkpoint")
	}
	eng.Shutdown()
}

// TestSenderRestoreWidensBoundsOverOutage checks the restart contract on
// the sender: a record pushed before the monitor died and matched after
// restore must carry the whole outage window in its error bound and a
// degraded confidence grade.
func TestSenderRestoreWidensBoundsOverOutage(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000, BytesAcked: 1}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	eng.Schedule(0, func() { tr.OnWrite(5000) })
	eng.RunUntil(units.Time(40 * units.Millisecond))
	// Monitor dies at t=40ms with the write still unmatched.
	tr.Stop()
	cp := tr.Checkpoint()
	if len(cp.Records) != 1 {
		t.Fatalf("records in checkpoint = %d, want 1", len(cp.Records))
	}

	// 300 ms outage, then restore and let TCP progress match the record.
	const outage = 300 * units.Millisecond
	eng.RunUntil(units.Time(40*units.Millisecond + outage))
	rt := RestoreSenderTracker(eng, src, cp, TrackerOptions{})
	if got := rt.Anomalies().Restores; got != 1 {
		t.Fatalf("Restores = %d, want 1", got)
	}
	src.info.BytesAcked = 6000
	eng.RunUntil(units.Time(500 * units.Millisecond))
	rt.Stop()

	log := rt.Estimates().Log()
	if len(log) == 0 {
		t.Fatalf("no samples produced after restore")
	}
	m := log[0]
	if m.ErrBound < outage {
		t.Fatalf("post-restore ErrBound = %v, want ≥ the %v outage", m.ErrBound, outage)
	}
	if m.Confidence == ConfidenceHigh {
		t.Fatalf("post-restore sample is high-confidence; the outage must degrade it")
	}
	eng.Shutdown()
}

// TestReceiverRestoreWidensBoundsOverOutage is the receiver-side restart
// contract: outstanding receive records matched after restore admit the
// outage, and the first post-restore record inherits the unobserved gap
// as sampling slack.
func TestReceiverRestoreWidensBoundsOverOutage(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{RcvMSS: 1000}}
	tr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond})
	eng.Schedule(5*units.Millisecond, func() { src.info.SegsIn = 3 })
	eng.RunUntil(units.Time(30 * units.Millisecond))
	tr.Stop()
	cp := tr.Checkpoint()

	const outage = 200 * units.Millisecond
	eng.RunUntil(units.Time(30*units.Millisecond + outage))
	rt := RestoreReceiverTracker(eng, src, cp, TrackerOptions{})
	// Read bytes covered by the pre-outage record: its sample must admit
	// the outage.
	rt.OnRead(2500, 2500, false)
	log := rt.Estimates().Log()
	if len(log) != 1 {
		t.Fatalf("samples = %d, want 1", len(log))
	}
	if log[0].ErrBound < outage {
		t.Fatalf("post-restore ErrBound = %v, want ≥ the %v outage", log[0].ErrBound, outage)
	}
	if log[0].Confidence == ConfidenceHigh {
		t.Fatalf("post-restore sample is high-confidence; the outage must degrade it")
	}

	// A growth observed after restore carries the gap since the restored
	// LastGrowth as slack (arrivals during the outage were observed late).
	src.info.SegsIn = 6
	eng.RunUntil(units.Time(30*units.Millisecond + outage + 20*units.Millisecond))
	rt.OnRead(5500, 3000, false)
	log = rt.Estimates().Log()
	if len(log) != 2 {
		t.Fatalf("samples = %d, want 2", len(log))
	}
	if log[1].ErrBound < outage/2 {
		t.Fatalf("first post-restore growth sample ErrBound = %v, want to admit most of the %v outage", log[1].ErrBound, outage)
	}
	rt.Stop()
	eng.Shutdown()
}

// restoreRun drives one full-stack connection for dur. If interruptAt is
// positive the monitor (both trackers) is checkpointed and killed at that
// time and restored — through a serialize→parse round trip — after
// restoreGap. Traffic is identical either way: the application writes and
// reads through the raw sockets and feeds the trackers only while the
// monitor is alive, exactly like a crashed monitoring sidecar.
type restoreRun struct {
	eng      *sim.Engine
	col      *trace.Collector
	sndLog   []Measurement
	rcvLog   []Measurement
	restores int
}

func runWithOutage(t *testing.T, seed int64, dur, interruptAt, restoreGap units.Duration, prof *faults.Profile) *restoreRun {
	t.Helper()
	eng := sim.New(seed)
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
		Reverse: netem.LinkConfig{Rate: 10 * units.Mbps, Delay: 25 * units.Millisecond},
	})
	net := stack.NewNet(eng, path)
	col := trace.New(eng)
	conn := stack.Dial(net, stack.ConnConfig{
		CC:            cc.KindCubic,
		SenderHooks:   col.SenderHooks(),
		ReceiverHooks: col.ReceiverHooks(),
	})

	var sndSrc, rcvSrc InfoSource = conn.Sender, conn.Receiver
	if prof != nil {
		inj := faults.New(eng, *prof, seed+0x6661756c74)
		sndSrc = inj.WrapInfo(conn.Sender)
		rcvSrc = inj.WrapInfo(conn.Receiver)
	}

	rr := &restoreRun{eng: eng, col: col}
	snd := NewSenderTrackerOpts(eng, sndSrc, TrackerOptions{})
	rcv := NewReceiverTrackerOpts(eng, rcvSrc, TrackerOptions{})
	alive := true

	eng.Spawn("writer", func(p *sim.Proc) {
		for {
			n := conn.Sender.Write(p, 16<<10)
			if n == 0 {
				return
			}
			if alive {
				snd.OnWrite(conn.Sender.WrittenCum())
			}
		}
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		for {
			n := conn.Receiver.Read(p, 1<<20)
			if n == 0 {
				return
			}
			if alive {
				rcv.OnRead(conn.Receiver.ReadCum(), n, n < 1<<20)
			}
		}
	})

	if interruptAt > 0 {
		eng.Schedule(interruptAt, func() {
			// The monitor dies: flush its series, checkpoint, stop.
			rr.sndLog = append(rr.sndLog, snd.Estimates().Log()...)
			rr.rcvLog = append(rr.rcvLog, rcv.Estimates().Log()...)
			scpB, err := snd.Checkpoint().Marshal()
			if err != nil {
				t.Errorf("sender checkpoint: %v", err)
			}
			rcpB, err := rcv.Checkpoint().Marshal()
			if err != nil {
				t.Errorf("receiver checkpoint: %v", err)
			}
			snd.Stop()
			rcv.Stop()
			alive = false
			eng.Schedule(restoreGap, func() {
				scp, err := UnmarshalSenderCheckpoint(scpB)
				if err != nil {
					t.Errorf("sender restore: %v", err)
					return
				}
				rcp, err := UnmarshalReceiverCheckpoint(rcpB)
				if err != nil {
					t.Errorf("receiver restore: %v", err)
					return
				}
				snd = RestoreSenderTracker(eng, sndSrc, scp, TrackerOptions{})
				rcv = RestoreReceiverTracker(eng, rcvSrc, rcp, TrackerOptions{})
				alive = true
				rr.restores++
			})
		})
	}

	eng.RunUntil(units.Time(dur))
	snd.Stop()
	rcv.Stop()
	rr.sndLog = append(rr.sndLog, snd.Estimates().Log()...)
	rr.rcvLog = append(rr.rcvLog, rcv.Estimates().Log()...)
	eng.Shutdown()
	return rr
}

// TestRestoreContinuesSeriesWithinWidenedBounds is the end-to-end restart
// contract: serialize → restore → continue must keep every non-flagged
// sample within its (widened) bound of ground truth, and the resumed
// series must keep producing samples comparable to an uninterrupted run.
func TestRestoreContinuesSeriesWithinWidenedBounds(t *testing.T) {
	const dur = 12 * units.Second
	base := runWithOutage(t, 7, dur, 0, 0, nil)
	interrupted := runWithOutage(t, 7, dur, 4*units.Second, 700*units.Millisecond, nil)
	if interrupted.restores != 1 {
		t.Fatalf("restores = %d, want 1", interrupted.restores)
	}

	// Bounded-or-flagged must hold across the restart.
	if bc := CheckSenderBounds(interrupted.sndLog, interrupted.col.SenderDelay(), 0); bc.Violations != 0 {
		t.Fatalf("sender bound violations across restart: %+v", bc)
	}
	if bc := CheckReceiverBounds(interrupted.rcvLog, interrupted.col.ReceiverDelay()); bc.Violations != 0 {
		t.Fatalf("receiver bound violations across restart: %+v", bc)
	}

	// The resumed series must not collapse: sample volume comparable to
	// the uninterrupted run minus what the outage itself can cost.
	if len(interrupted.sndLog) < len(base.sndLog)/2 {
		t.Fatalf("interrupted run produced %d sender samples vs %d uninterrupted — series did not resume",
			len(interrupted.sndLog), len(base.sndLog))
	}

	// Post-restore steady-state estimates must agree with the baseline's
	// over the same window within the widened bounds.
	meanAfter := func(log []Measurement, from units.Time) (units.Duration, units.Duration, int) {
		var sum, worst units.Duration
		n := 0
		for _, m := range log {
			if m.At < from || m.Confidence == ConfidenceLow {
				continue
			}
			sum += m.Delay
			if m.ErrBound > worst {
				worst = m.ErrBound
			}
			n++
		}
		if n == 0 {
			return 0, 0, 0
		}
		return sum / units.Duration(n), worst, n
	}
	from := units.Time(6 * units.Second)
	bMean, bBound, bn := meanAfter(base.sndLog, from)
	iMean, iBound, in := meanAfter(interrupted.sndLog, from)
	if bn == 0 || in == 0 {
		t.Fatalf("no comparable post-restore samples (base %d, interrupted %d)", bn, in)
	}
	diff := bMean - iMean
	if diff < 0 {
		diff = -diff
	}
	allow := bBound + iBound
	if diff > allow {
		t.Fatalf("post-restore mean %v vs baseline %v differ by %v > widened allowance %v",
			iMean, bMean, diff, allow)
	}
}

// TestRestoreUnderFaultProfiles repeats the restart contract under every
// named fault profile: degraded TCP_INFO plus a monitor outage must still
// yield bounded-or-flagged samples.
func TestRestoreUnderFaultProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-profile sweep in -short mode")
	}
	for _, name := range faults.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			prof, err := faults.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rr := runWithOutage(t, 11, 10*units.Second, 3*units.Second, 500*units.Millisecond, &prof)
			if rr.restores != 1 {
				t.Fatalf("restores = %d, want 1", rr.restores)
			}
			if bc := CheckSenderBounds(rr.sndLog, rr.col.SenderDelay(), 0); bc.Violations != 0 {
				t.Fatalf("sender bound violations under %s: %+v", name, bc)
			}
			if bc := CheckReceiverBounds(rr.rcvLog, rr.col.ReceiverDelay()); bc.Violations != 0 {
				t.Fatalf("receiver bound violations under %s: %+v", name, bc)
			}
		})
	}
}

// TestTrackerRecordCapEvicts pins the bounded-FIFO behaviour: pushes past
// the cap evict the oldest records, count as anomalies, and degrade the
// next samples instead of growing without bound.
func TestTrackerRecordCapEvicts(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000, BytesAcked: 1}}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Interval: 10 * units.Millisecond, RecordCap: 4})
	tr.PollOnce() // evictions mid-run, after at least one poll
	for i := 1; i <= 10; i++ {
		tr.OnWrite(uint64(i * 100))
	}
	if got := tr.Pending(); got != 4 {
		t.Fatalf("pending = %d, want cap 4", got)
	}
	if got := tr.Anomalies().Evictions; got != 6 {
		t.Fatalf("evictions = %d, want 6", got)
	}
	// The next matched sample must be degraded (eviction is an anomaly).
	src.info.BytesAcked = 1000
	tr.PollOnce()
	log := tr.Estimates().Log()
	if len(log) == 0 {
		t.Fatalf("no samples after eviction")
	}
	if log[0].Confidence == ConfidenceHigh {
		t.Fatalf("sample after eviction is high-confidence, want degraded")
	}
	tr.Stop()
	eng.Shutdown()
}

// TestRestoreKeepsRecordCap sends each tracker's checkpoint through
// Marshal and back and restores it with the cap left to the checkpoint:
// the restored ring has the cap the tracker was built with — an uncapped
// tracker (whose checkpoint carries no record_cap) restores uncapped, not
// at DefaultRecordCap.
func TestRestoreKeepsRecordCap(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1448, RcvMSS: 1448}}
	for _, recordCap := range []int{-1, 0, 7} {
		opts := TrackerOptions{RecordCap: recordCap, Detached: true}
		snd := NewSenderTrackerOpts(eng, src, opts)
		b, err := snd.Checkpoint().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		scp, err := UnmarshalSenderCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := RestoreSenderTracker(eng, src, scp, TrackerOptions{Detached: true}).list.cap; got != snd.list.cap {
			t.Errorf("sender built with RecordCap %d: restored cap %d, want %d", recordCap, got, snd.list.cap)
		}
		rcv := NewReceiverTrackerOpts(eng, src, opts)
		if b, err = rcv.Checkpoint().Marshal(); err != nil {
			t.Fatal(err)
		}
		rcp, err := UnmarshalReceiverCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := RestoreReceiverTracker(eng, src, rcp, TrackerOptions{Detached: true}).list.cap; got != rcv.list.cap {
			t.Errorf("receiver built with RecordCap %d: restored cap %d, want %d", recordCap, got, rcv.list.cap)
		}
	}
	eng.Shutdown()
}

// TestStateIsComplete holds the rule that a checkpoint is its object's
// state: every field of the four resumable objects is either inside the
// embedded state struct (which the checkpoint embeds too, so it is saved
// and restored without further code) or on this allowlist of what a
// checkpoint deliberately leaves out. The shells an object embeds (the
// tracker shell, the polling loop) are descended into, so their fields
// are held to the list one by one. Telemetry handles are recognised by
// package. A new field has to go into the state or onto the list, and
// every name on the list must still be a field.
func TestStateIsComplete(t *testing.T) {
	const telemetryPkg = "element/internal/telemetry"
	shells := []reflect.Type{reflect.TypeOf(tracker{}), reflect.TypeOf(loop{})}
	loopFields := map[string]string{
		"eng":      "engine",
		"interval": "option; the checkpoint carries it beside the state",
		"owner":    "the loop's owner, the object itself",
		"ticker":   "timer",
		"stopped":  "stop flag",
	}
	trackerFields := map[string]string{
		"san":  "source; its own state is the checkpoint's Sanitizer",
		"list": "ring; the checkpoint carries it as Records",
		"est":  "estimates; the supervisor drains them",
	}
	for _, c := range []struct {
		live, state, checkpoint reflect.Type
		allow                   []map[string]string
	}{
		{reflect.TypeOf(SenderTracker{}), reflect.TypeOf(senderState{}), reflect.TypeOf(SenderCheckpoint{}), []map[string]string{
			loopFields, trackerFields, {"onDelay": "subscriber; the minimizer re-subscribes on restore"},
		}},
		{reflect.TypeOf(ReceiverTracker{}), reflect.TypeOf(receiverState{}), reflect.TypeOf(ReceiverCheckpoint{}), []map[string]string{
			loopFields, trackerFields,
		}},
		{reflect.TypeOf(Minimizer{}), reflect.TypeOf(minimizerState{}), reflect.TypeOf(MinimizerCheckpoint{}), []map[string]string{loopFields, {
			"tracker": "source; the tracker restores on its own",
			"cfg":     "option; the checkpoint carries it as Config",
			"tlast":   "per-SRTT update clock; a restore restarts it",
		}}},
		{reflect.TypeOf(sanitizer{}), reflect.TypeOf(sanitizerState{}), reflect.TypeOf(SenderCheckpoint{}.Sanitizer), []map[string]string{{
			"src": "source",
		}}},
	} {
		allow := map[string]string{}
		for _, m := range c.allow {
			maps.Copy(allow, m)
		}
		embedded := false
		var walk func(typ reflect.Type)
		walk = func(typ reflect.Type) {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				switch {
				case f.Anonymous && f.Type == c.state:
					embedded = true
				case f.Anonymous && slices.Contains(shells, f.Type):
					walk(f.Type)
				case f.Type.Kind() == reflect.Pointer && f.Type.Elem().PkgPath() == telemetryPkg:
				case allow[f.Name] != "":
					delete(allow, f.Name)
				default:
					t.Errorf("%v.%s (in %v) is neither in %v nor on the allowlist", c.live, f.Name, typ, c.state)
				}
			}
		}
		walk(c.live)
		if !embedded {
			t.Errorf("%v does not embed %v", c.live, c.state)
		}
		for name := range allow {
			t.Errorf("%v has no field %s, yet it is on the allowlist", c.live, name)
		}
		if c.checkpoint != c.state {
			if f, ok := c.checkpoint.FieldByName(c.state.Name()); !ok || !f.Anonymous {
				t.Errorf("%v does not embed %v", c.checkpoint, c.state)
			}
		}
	}
}

// TestZeroOutageContinuation restores each object from a checkpoint taken
// at the same instant, mid-run, and compares the restored state with the
// live one. Only the documented restore adjustments may differ: the
// Restores anomaly and the holdoff stamp it opens (the sender's stale-poll
// advance is zero for a zero outage). Everything else — records, options,
// every state field — must come back exactly.
func TestZeroOutageContinuation(t *testing.T) {
	eng := sim.New(1)
	ssrc := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1000, SndCwnd: 10, SndBuf: 64 << 10, RTT: 20 * units.Millisecond, BytesAcked: 1}}
	rsrc := &fakeSource{info: tcpinfo.TCPInfo{RcvMSS: 1000}}
	opts := TrackerOptions{Interval: 10 * units.Millisecond, RecordCap: 64, Detached: true}
	snd := NewSenderTrackerOpts(eng, ssrc, opts)
	rcv := NewReceiverTrackerOpts(eng, rsrc, opts)
	mz := NewMinimizerDetached(eng, ssrc, snd, MinimizerConfig{})
	for i := 1; i <= 60; i++ {
		snd.OnWrite(uint64(i) * 3000)
		if i%4 != 0 { // every fourth poll stalls
			ssrc.info.BytesAcked = uint64(i) * 2000
			rsrc.info.SegsIn = i * 3
		}
		if i%17 == 0 { // MSS drift and a backwards counter
			ssrc.info.SndMSS += 8
			ssrc.info.BytesAcked -= 500
		}
		eng.RunFor(10 * units.Millisecond)
		snd.PollOnce()
		rcv.PollOnce()
		mz.CheckOnce()
		rcv.OnRead(uint64(i)*2500, 2500, i%3 == 0)
		if i == 50 {
			snd.Shed(15 * units.Millisecond)
		}
	}
	if snd.Pending() == 0 || rcv.Pending() == 0 || snd.Anomalies().Total() == 0 || mz.Davg == 0 {
		t.Fatalf("scenario too quiet to test anything: pending %d/%d, anomalies %+v, D_avg %v",
			snd.Pending(), rcv.Pending(), snd.Anomalies(), mz.Davg)
	}

	snd2 := RestoreSenderTracker(eng, ssrc, snd.Checkpoint(), TrackerOptions{Detached: true})
	rcv2 := RestoreReceiverTracker(eng, rsrc, rcv.Checkpoint(), TrackerOptions{Detached: true})
	min2 := RestoreMinimizer(eng, snd2, mz.Checkpoint())

	wantSan := snd.san.sanitizerState
	wantSan.Counts.Restores++
	wantSnd := snd.senderState
	wantSnd.stamp(wantSnd.PollCount, &sanitizer{sanitizerState: wantSan})
	if snd2.san.sanitizerState != wantSan {
		t.Errorf("sender sanitizer:\n  restored %+v\n  want     %+v", snd2.san.sanitizerState, wantSan)
	}
	if snd2.senderState != wantSnd {
		t.Errorf("sender state:\n  restored %+v\n  want     %+v", snd2.senderState, wantSnd)
	}

	wantRSan := rcv.san.sanitizerState
	wantRSan.Counts.Restores++
	wantRcv := rcv.receiverState
	wantRcv.stamp(wantRcv.PollCount, &sanitizer{sanitizerState: wantRSan})
	if rcv2.san.sanitizerState != wantRSan {
		t.Errorf("receiver sanitizer:\n  restored %+v\n  want     %+v", rcv2.san.sanitizerState, wantRSan)
	}
	if rcv2.receiverState != wantRcv {
		t.Errorf("receiver state:\n  restored %+v\n  want     %+v", rcv2.receiverState, wantRcv)
	}

	if min2.minimizerState != mz.minimizerState || min2.cfg != mz.cfg {
		t.Errorf("minimizer:\n  restored %+v %+v\n  want     %+v %+v", min2.minimizerState, min2.cfg, mz.minimizerState, mz.cfg)
	}
	for _, c := range []struct {
		name       string
		live, back *fifo
	}{{"sender", &snd.list, &snd2.list}, {"receiver", &rcv.list, &rcv2.list}} {
		if !reflect.DeepEqual(appendRecords(nil, c.back), appendRecords(nil, c.live)) || c.back.cap != c.live.cap {
			t.Errorf("%s records or cap changed across the restore", c.name)
		}
	}
	if snd2.interval != snd.interval || rcv2.interval != rcv.interval {
		t.Errorf("interval changed across the restore")
	}
	eng.Shutdown()
}

// TestEncodableIsMarshal holds Encodable to the encoding it predicts: for
// each of the three checkpointed objects, every float anywhere in the
// checkpointed state — found by reflection, so a new float field cannot
// be missed — makes Encodable false and Marshal fail when it is NaN or
// ±Inf, and nothing else does. A holder that checks Encodable before
// refilling its checkpoint therefore skips exactly the checkpoints
// Marshal would reject.
func TestEncodableIsMarshal(t *testing.T) {
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1448, RcvMSS: 1448, SndCwnd: 10, SndBuf: 64 << 10, PacingRate: 2e6}}
	opts := TrackerOptions{Detached: true}
	snd := NewSenderTrackerOpts(eng, src, opts)
	rcv := NewReceiverTrackerOpts(eng, src, opts)
	mz := NewMinimizerDetached(eng, src, snd, MinimizerConfig{})
	for i := 1; i <= 20; i++ {
		eng.RunFor(10 * units.Millisecond)
		snd.OnWrite(uint64(i) * 3000)
		src.info.BytesAcked = uint64(i) * 2000
		src.info.SegsIn = 2 * i
		snd.PollOnce()
		rcv.PollOnce()
		mz.CheckOnce()
	}
	for _, c := range []struct {
		name      string
		state     []any
		encodable func() bool
		marshal   func() error
	}{
		{"sender", []any{&snd.senderState, &snd.san.sanitizerState}, snd.Encodable,
			func() error { _, err := snd.Checkpoint().Marshal(); return err }},
		{"receiver", []any{&rcv.receiverState, &rcv.san.sanitizerState}, rcv.Encodable,
			func() error { _, err := rcv.Checkpoint().Marshal(); return err }},
		{"minimizer", []any{&mz.minimizerState, &mz.cfg}, mz.Encodable,
			func() error { _, err := mz.Checkpoint().Marshal(); return err }},
	} {
		if err := c.marshal(); !c.encodable() || err != nil {
			t.Fatalf("%s: finite state reads Encodable %v, marshal error %v", c.name, c.encodable(), err)
		}
		floats := 0
		for _, st := range c.state {
			forEachFloat(reflect.ValueOf(st).Elem(), reflect.TypeOf(st).Elem().Name(), func(path string, f reflect.Value) {
				floats++
				saved := f.Float()
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					f.SetFloat(bad)
					if err := c.marshal(); c.encodable() || err == nil {
						t.Errorf("%s: %s = %v reads Encodable %v, marshal error %v", c.name, path, bad, c.encodable(), err)
					}
				}
				f.SetFloat(saved)
			})
		}
		if floats == 0 {
			t.Fatalf("%s: no float found in the checkpointed state", c.name)
		}
		if err := c.marshal(); !c.encodable() || err != nil {
			t.Fatalf("%s: restored state reads Encodable %v, marshal error %v", c.name, c.encodable(), err)
		}
	}
	eng.Shutdown()
}

// forEachFloat calls fn with a settable value for every float inside v, a
// struct reached by address, at any depth of structs and arrays; the
// states' fields sit behind unexported embeddings, so each is re-derived
// from its address.
func forEachFloat(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		fn(path, reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			forEachFloat(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			forEachFloat(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	}
}
