package fleet

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"element/internal/core"
	"element/internal/faults"
	"element/internal/sim"
	"element/internal/tcpinfo"
	"element/internal/units"
)

// scriptSource is a TCP_INFO source whose snapshot the test sets by hand.
type scriptSource struct{ info tcpinfo.TCPInfo }

func (s *scriptSource) GetsockoptTCPInfo() tcpinfo.TCPInfo { return s.info }
func (s *scriptSource) SetSndBuf(int)                      {}

// roundTripPolls is how long a restored object is driven before its
// output is compared.
const roundTripPolls = 50

// restoredRun restores a sender tracker (with the minimizer, when mcp is
// non-nil) and a receiver tracker from the given checkpoints on a private
// engine, a quarter second after the checkpoint was taken, and drives them
// for roundTripPolls polls over a scripted connection that makes progress
// from where the checkpoint left off. It returns everything the restored
// objects produced: both measurement logs and the minimizer's state.
func restoredRun(scp core.SenderCheckpoint, rcp core.ReceiverCheckpoint, mcp *core.MinimizerCheckpoint) (snd, rcv []core.Measurement, min core.MinimizerCheckpoint) {
	eng := sim.New(1)
	eng.RunUntil(max(scp.TakenAt, rcp.TakenAt).Add(250 * units.Millisecond))
	ssrc := &scriptSource{info: scp.Sanitizer.Last}
	rsrc := &scriptSource{info: rcp.Sanitizer.Last}
	opts := core.TrackerOptions{Detached: true}
	st := core.RestoreSenderTracker(eng, ssrc, scp, opts)
	rt := core.RestoreReceiverTracker(eng, rsrc, rcp, opts)
	var mz *core.Minimizer
	if mcp != nil {
		mz = core.RestoreMinimizer(eng, st, *mcp)
	}
	read := uint64(0)
	if len(rcp.Records) > 0 {
		read = rcp.Records[0].Bytes
	}
	for i := 1; i <= roundTripPolls; i++ {
		eng.RunFor(10 * units.Millisecond)
		st.OnWrite(scp.CumWritten + uint64(i)*4000)
		ssrc.info.BytesAcked += 3000
		ssrc.info.Unacked = 2 + i%3
		rsrc.info.SegsIn += 2
		st.PollOnce()
		rt.PollOnce()
		if mz != nil {
			mz.CheckOnce()
		}
		read += 2500
		rt.OnRead(read, 2500, i%3 == 0)
	}
	if mz != nil {
		min = mz.Checkpoint()
	}
	snd, rcv = slices.Clone(st.Estimates().Log()), slices.Clone(rt.Estimates().Log())
	st.Stop()
	rt.Stop()
	eng.Shutdown()
	return snd, rcv, min
}

// TestHeldCheckpointRoundTrip proves, at every checkpoint of churn fleets
// over every fault profile, what the held checkpoint relies on instead of
// re-parsing its own bytes at every restart:
//
//   - a checkpoint is skipped exactly when json.Marshal of it fails — both
//     as the runs produce them and with a non-finite float planted in each
//     object's state — so held state always survives Snapshot's encoding;
//   - restoring from the held value and from Unmarshal(Marshal(held))
//     gives the same measurements over the next roundTripPolls polls, for
//     the sender, the receiver and the minimizer.
//
// The probe runs on the shard engine right after the fleet's own
// checkpoint event at the same instant, so it sees the state that
// checkpoint saw; it leaves the fleet's run unchanged.
func TestHeldCheckpointRoundTrip(t *testing.T) {
	for _, name := range faults.Names() {
		prof, err := faults.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sndSamples, rcvSamples := 0, 0
		for seed := int64(1); seed <= 3; seed++ {
			cfg := testConfig(seed, 6)
			cfg.Duration, cfg.Shards, cfg.Minimize, cfg.Faults = 3*units.Second, 1, true, &prof
			f := New(cfg)
			sh := f.shards[0]
			taken, compared := 0, 0
			var probe func()
			probe = func() {
				for _, m := range sh.monitors {
					if m.state != stateRunning || m.wedged {
						continue
					}
					checkSkipIffMarshalFails(t, name, seed, m)
					if m.haveCP && m.sndCP.TakenAt == sh.eng.Now() {
						taken++
					}
					if m.haveCP {
						compared++
						s, r := checkRoundTrip(t, name, seed, m)
						sndSamples += s
						rcvSamples += r
					}
				}
				sh.eng.Schedule(checkpointEvery, probe)
			}
			sh.eng.Schedule(checkpointEvery, probe)
			res := f.Run()
			if taken == 0 || compared == 0 || taken != res.Checkpoints {
				t.Fatalf("%s seed %d: probe saw %d checkpoints taken (fleet counted %d), compared %d restores",
					name, seed, taken, res.Checkpoints, compared)
			}
		}
		if sndSamples == 0 || rcvSamples == 0 {
			t.Fatalf("%s: restored runs produced %d sender and %d receiver samples to compare", name, sndSamples, rcvSamples)
		}
	}
}

// checkSkipIffMarshalFails holds the monitor's last checkpoint to the
// encoding: taken at this instant if and only if every object's
// checkpoint marshals. Then, one object at a time, it plants a NaN in the
// live state, checkpoints again and requires the held state untouched
// and no checkpoint counted, before putting the value back.
func checkSkipIffMarshalFails(t *testing.T, name string, seed int64, m *Monitor) {
	t.Helper()
	now := m.sh.eng.Now()
	_, errS := m.snd.Checkpoint().Marshal()
	_, errR := m.rcv.Checkpoint().Marshal()
	_, errM := m.min.Checkpoint().Marshal()
	encodes := errS == nil && errR == nil && errM == nil
	if taken := m.haveCP && m.sndCP.TakenAt == now; taken != encodes {
		t.Fatalf("%s seed %d conn %d at %v: checkpoint taken=%v but marshal errors %v/%v/%v",
			name, seed, m.ID, now, taken, errS, errR, errM)
	}
	for _, p := range []struct {
		field   *float64
		marshal func() ([]byte, error)
	}{
		{&m.snd.RateEst, func() ([]byte, error) { return m.snd.Checkpoint().Marshal() }},
		{&m.rcv.RateEst, func() ([]byte, error) { return m.rcv.Checkpoint().Marshal() }},
		{&m.min.Starget, func() ([]byte, error) { return m.min.Checkpoint().Marshal() }},
	} {
		saved := *p.field
		*p.field = math.NaN()
		if _, err := p.marshal(); err == nil {
			t.Fatalf("%s seed %d conn %d: a checkpoint with a NaN marshals", name, seed, m.ID)
		}
		wantSnd, wantRcv, wantMin, wantHave := cloneSender(m.sndCP), cloneReceiver(m.rcvCP), m.minCP, m.haveCP
		before := m.sh.checkpoints
		m.checkpoint()
		if m.sh.checkpoints != before || m.haveCP != wantHave ||
			!reflect.DeepEqual(m.sndCP, wantSnd) || !reflect.DeepEqual(m.rcvCP, wantRcv) || !reflect.DeepEqual(m.minCP, wantMin) {
			t.Fatalf("%s seed %d conn %d at %v: a checkpoint with a NaN was held", name, seed, m.ID, now)
		}
		*p.field = saved
	}
}

// checkRoundTrip restores the held checkpoint as is and after a JSON
// round trip, and requires the two runs to produce the same output. It
// returns how many sender and receiver samples were compared.
func checkRoundTrip(t *testing.T, name string, seed int64, m *Monitor) (snd, rcv int) {
	t.Helper()
	sb, errS := m.sndCP.Marshal()
	rb, errR := m.rcvCP.Marshal()
	mb, errM := m.minCP.Marshal()
	if errS != nil || errR != nil || errM != nil {
		t.Fatalf("%s seed %d conn %d: held checkpoint does not encode: %v/%v/%v", name, seed, m.ID, errS, errR, errM)
	}
	scp, errS := core.UnmarshalSenderCheckpoint(sb)
	rcp, errR := core.UnmarshalReceiverCheckpoint(rb)
	mcp, errM := core.UnmarshalMinimizerCheckpoint(mb)
	if errS != nil || errR != nil || errM != nil {
		t.Fatalf("%s seed %d conn %d: held checkpoint does not decode: %v/%v/%v", name, seed, m.ID, errS, errR, errM)
	}
	var heldMin, decMin *core.MinimizerCheckpoint
	if m.haveMinCP {
		heldMin, decMin = &m.minCP, &mcp
	}
	hs, hr, hm := restoredRun(m.sndCP, m.rcvCP, heldMin)
	ds, dr, dm := restoredRun(scp, rcp, decMin)
	if !slices.Equal(hs, ds) {
		t.Fatalf("%s seed %d conn %d at %v: sender log differs between held and decoded restore", name, seed, m.ID, m.sndCP.TakenAt)
	}
	if !slices.Equal(hr, dr) {
		t.Fatalf("%s seed %d conn %d at %v: receiver log differs between held and decoded restore", name, seed, m.ID, m.rcvCP.TakenAt)
	}
	if hm != dm {
		t.Fatalf("%s seed %d conn %d at %v: minimizer differs between held and decoded restore:\n  held    %+v\n  decoded %+v",
			name, seed, m.ID, m.minCP.TakenAt, hm, dm)
	}
	return len(hs), len(hr)
}

func cloneSender(cp core.SenderCheckpoint) core.SenderCheckpoint {
	cp.Records = slices.Clone(cp.Records)
	return cp
}

func cloneReceiver(cp core.ReceiverCheckpoint) core.ReceiverCheckpoint {
	cp.Records = slices.Clone(cp.Records)
	return cp
}

// TestMonitorCheckpointZeroAlloc pins the held checkpoint's cost: once a
// first checkpoint has sized the record storage, refilling it allocates
// nothing — with outstanding sender and receiver records, with and
// without the minimizer.
func TestMonitorCheckpointZeroAlloc(t *testing.T) {
	for _, minimize := range []bool{false, true} {
		f := &Fleet{cfg: Config{Minimize: minimize}.normalize()}
		sh := &shard{fl: f, shardRun: shardRun{eng: sim.New(1)}}
		ssrc := &scriptSource{info: tcpinfo.TCPInfo{SndMSS: 1448, RcvMSS: 1448, SndCwnd: 10, SndBuf: 64 << 10, RTT: 20 * units.Millisecond}}
		rsrc := &scriptSource{info: tcpinfo.TCPInfo{SndMSS: 1448, RcvMSS: 1448}}
		m := &Monitor{fl: f, sh: sh, monitorRun: monitorRun{sndSrc: ssrc, rcvSrc: rsrc}}
		m.startFresh()
		for i := 1; i <= 40; i++ {
			sh.eng.RunFor(f.cfg.Interval)
			m.snd.OnWrite(uint64(i) * 4000)
			ssrc.info.BytesAcked = uint64(i) * 1000
			rsrc.info.SegsIn = 3 * i
			if !m.protectedPoll() {
				t.Fatal("poll panicked")
			}
			m.flush()
		}
		m.checkpoint()
		if !m.haveCP || len(m.sndCP.Records) == 0 || len(m.rcvCP.Records) == 0 || m.haveMinCP != minimize {
			t.Fatalf("minimize=%v: warm-up checkpoint held %v with %d sender and %d receiver records, minimizer %v",
				minimize, m.haveCP, len(m.sndCP.Records), len(m.rcvCP.Records), m.haveMinCP)
		}
		if allocs := testing.AllocsPerRun(100, m.checkpoint); allocs != 0 {
			t.Fatalf("minimize=%v: checkpoint allocates %.2f times", minimize, allocs)
		}
		if want := 102; sh.checkpoints != want {
			t.Fatalf("minimize=%v: %d checkpoints counted, want %d", minimize, sh.checkpoints, want)
		}
		m.dropIncarnation()
		sh.eng.Shutdown()
	}
}
