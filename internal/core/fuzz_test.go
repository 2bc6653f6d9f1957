package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"element/internal/sim"
	"element/internal/tcpinfo"
	"element/internal/units"
)

// Fuzz targets for the two places arbitrary bytes enter core: TCP_INFO
// snapshots crossing the sanitizer, and checkpoint JSON crossing the
// Unmarshal*/Restore* path. The invariant under test is the
// bounded-or-flagged contract's arithmetic shape — no panics, delays
// never negative, error bounds never negative, sanitized counters never
// moving backwards — for *any* input, not just the fault profiles the
// scenario tests script.

// snapshotStride is the bytes consumed per fuzzed TCP_INFO snapshot.
const snapshotStride = 26

// decodeSnapshots turns fuzz bytes into a bounded snapshot sequence.
// Signed narrow types are deliberate: negative Unacked, MSS and segment
// counters are exactly the hostile input the sanitizer exists to absorb.
func decodeSnapshots(data []byte) []tcpinfo.TCPInfo {
	n := len(data) / snapshotStride
	if n > 64 {
		n = 64
	}
	out := make([]tcpinfo.TCPInfo, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*snapshotStride:]
		out = append(out, tcpinfo.TCPInfo{
			BytesAcked:   binary.LittleEndian.Uint64(b[0:]) % (1 << 40),
			Unacked:      int(int16(binary.LittleEndian.Uint16(b[8:]))),
			SndMSS:       int(int16(binary.LittleEndian.Uint16(b[10:]))),
			RcvMSS:       int(int16(binary.LittleEndian.Uint16(b[12:]))),
			SegsIn:       int(int32(binary.LittleEndian.Uint32(b[14:]))),
			SegsOut:      int(int32(binary.LittleEndian.Uint32(b[18:]))),
			TotalRetrans: int(int32(binary.LittleEndian.Uint32(b[22:]))),
		})
	}
	return out
}

// FuzzSanitizer replays arbitrary snapshot sequences through the
// sanitizer and checks the defended view it promises every core reader:
// cumulative counters monotone, zero MSS substituted once a good value
// exists, Unacked non-negative, and an anomaly tally that only grows.
func FuzzSanitizer(f *testing.F) {
	f.Add(make([]byte, 3*snapshotStride))
	seed := make([]byte, 4*snapshotStride)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		snaps := decodeSnapshots(data)
		if len(snaps) == 0 {
			return
		}
		src := &fakeSource{}
		san := newSanitizer(src)
		var prev tcpinfo.TCPInfo
		prevTotal := 0
		for i, raw := range snaps {
			src.info = raw
			ti := san.GetsockoptTCPInfo()
			if ti.Unacked < 0 {
				t.Fatalf("snapshot %d: sanitized Unacked %d < 0", i, ti.Unacked)
			}
			if i > 0 {
				if ti.BytesAcked < prev.BytesAcked || ti.SegsIn < prev.SegsIn ||
					ti.SegsOut < prev.SegsOut || ti.TotalRetrans < prev.TotalRetrans {
					t.Fatalf("snapshot %d: cumulative counter moved backwards:\n  prev %+v\n  got  %+v", i, prev, ti)
				}
				if prev.SndMSS > 0 && ti.SndMSS == 0 {
					t.Fatalf("snapshot %d: zero SndMSS leaked past substitution", i)
				}
				if prev.RcvMSS > 0 && ti.RcvMSS == 0 {
					t.Fatalf("snapshot %d: zero RcvMSS leaked past substitution", i)
				}
			}
			if tot := san.Anomalies().Total(); tot < prevTotal {
				t.Fatalf("snapshot %d: anomaly total shrank %d -> %d", i, prevTotal, tot)
			} else {
				prevTotal = tot
			}
			best, _ := san.BEst(ti)
			_ = best
			if spread := san.sndMSSSpread(); spread < 0 {
				t.Fatalf("snapshot %d: negative MSS spread %d", i, spread)
			}
			prev = ti
		}
	})
}

// FuzzSenderTracker drives a full Algorithm 1 tracker — writes plus
// polls — on arbitrary snapshot sequences and checks every emitted
// sample keeps the bounded-or-flagged shape: Delay and ErrBound
// non-negative, Confidence a defined grade.
func FuzzSenderTracker(f *testing.F) {
	f.Add(make([]byte, 2*snapshotStride))
	seed := make([]byte, 6*snapshotStride)
	for i := range seed {
		seed[i] = byte(255 - i)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		snaps := decodeSnapshots(data)
		if len(snaps) == 0 {
			return
		}
		eng := sim.New(1)
		src := &fakeSource{}
		tr := NewSenderTrackerOpts(eng, src, TrackerOptions{
			Interval: 10 * units.Millisecond, RecordCap: 32, Detached: true,
		})
		var written uint64
		for i, raw := range snaps {
			// Interleave writes derived from the same fuzz bytes, so the
			// matcher sees backlogs, evictions and stalls in every mix.
			written += raw.BytesAcked % 4096
			tr.OnWrite(written)
			src.info = raw
			eng.RunUntil(units.Time(i+1) * units.Time(10*units.Millisecond))
			tr.PollOnce()
		}
		checkMeasurements(t, tr.Estimates().Log())
	})
}

func checkMeasurements(t *testing.T, log []Measurement) {
	t.Helper()
	for i, m := range log {
		if m.Delay < 0 {
			t.Fatalf("sample %d: negative delay %v", i, m.Delay)
		}
		if m.ErrBound < 0 {
			t.Fatalf("sample %d: negative error bound %v", i, m.ErrBound)
		}
		if m.Confidence > ConfidenceHigh {
			t.Fatalf("sample %d: undefined confidence grade %d", i, m.Confidence)
		}
	}
}

// FuzzSenderCheckpointDecode decodes arbitrary bytes as a sender
// checkpoint and, when they parse, restores and drives the tracker. The
// restore path guarantees the ring's sorted invariant and the sample
// shape for any decodable checkpoint — including hand-edited timestamps
// in the future, negative stall debt, and out-of-order records.
func FuzzSenderCheckpointDecode(f *testing.F) {
	f.Add([]byte(`not json`))
	f.Add(seedSenderCheckpoint(f))
	f.Add([]byte(`{"taken_at":99999999999,"stall_cum":-5,"records":[{"bytes":9,"at":88888888888,"stall":77777777},{"bytes":3,"at":-4}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := UnmarshalSenderCheckpoint(data)
		if err != nil {
			return
		}
		eng := sim.New(1)
		eng.RunUntil(units.Time(units.Second))
		src := &fakeSource{}
		tr := RestoreSenderTracker(eng, src, cp, TrackerOptions{Detached: true})
		for i := 1; i < tr.list.len(); i++ {
			if tr.list.at(i).bytes < tr.list.at(i-1).bytes {
				t.Fatalf("restored ring not monotone at %d: %d < %d", i, tr.list.at(i).bytes, tr.list.at(i-1).bytes)
			}
		}
		// Feed enough acked bytes to match every restored record, then keep
		// polling: every sample produced from restored state must still have
		// the bounded-or-flagged shape.
		var top uint64
		if n := tr.list.len(); n > 0 {
			top = tr.list.at(n - 1).bytes
		}
		for i := 0; i < 4; i++ {
			src.info = tcpinfo.TCPInfo{BytesAcked: top + uint64(i), SndMSS: 1448, RcvMSS: 1448}
			eng.RunUntil(eng.Now() + units.Time(10*units.Millisecond))
			tr.PollOnce()
		}
		checkMeasurements(t, tr.Estimates().Log())
	})
}

// FuzzReceiverCheckpointDecode is the receiver-side twin: decode,
// restore, drain the restored backlog through OnRead, and check the
// sample shape.
func FuzzReceiverCheckpointDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add(seedReceiverCheckpoint(f))
	f.Add([]byte(`{"taken_at":-1,"records":[{"bytes":100,"at":123456789,"slack":-9,"stall":-9},{"bytes":5,"at":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := UnmarshalReceiverCheckpoint(data)
		if err != nil {
			return
		}
		eng := sim.New(1)
		eng.RunUntil(units.Time(units.Second))
		src := &fakeSource{}
		tr := RestoreReceiverTracker(eng, src, cp, TrackerOptions{Detached: true})
		for i := 1; i < tr.list.len(); i++ {
			if tr.list.at(i).bytes < tr.list.at(i-1).bytes {
				t.Fatalf("restored ring not monotone at %d: %d < %d", i, tr.list.at(i).bytes, tr.list.at(i-1).bytes)
			}
		}
		var cum uint64
		for i := 0; i < tr.list.len() && i < 8; i++ {
			cum = tr.list.at(i).bytes
		}
		for i := 0; i < 4; i++ {
			src.info = tcpinfo.TCPInfo{SegsIn: 10 * (i + 1), RcvMSS: 1448, SndMSS: 1448}
			eng.RunUntil(eng.Now() + units.Time(10*units.Millisecond))
			tr.PollOnce()
			tr.OnRead(cum+uint64(i*1448), 1448, i%2 == 0)
		}
		checkMeasurements(t, tr.Estimates().Log())
	})
}

// FuzzMinimizerCheckpointDecode decodes arbitrary bytes as an Algorithm 3
// checkpoint and restores it onto a live tracker: the confidence-window
// cursor clamps must hold for any decodable input, so feeding
// measurements afterwards cannot index outside the window.
func FuzzMinimizerCheckpointDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"conf_idx":999,"conf_n":-3,"davg":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := UnmarshalMinimizerCheckpoint(data)
		if err != nil {
			return
		}
		eng := sim.New(1)
		src := &fakeSource{info: tcpinfo.TCPInfo{SndMSS: 1448, RcvMSS: 1448, SndBuf: 1 << 16}}
		tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Detached: true})
		m := RestoreMinimizer(eng, tr, cp)
		for i := 0; i < 2*len(cp.ConfWin); i++ {
			m.onMeasurement(Measurement{Confidence: Confidence(i % 3)})
		}
		m.CheckOnce()
	})
}

// FuzzHeldCheckpoint is the differential check behind holding a
// checkpoint as a value instead of re-parsing its bytes at every restore:
// any input that decodes as a sender, receiver or minimizer checkpoint
// restores identically from the decoded value and from its re-encoding —
// the same samples or passes, the same state after — and that
// re-encoding is a fixed point.
func FuzzHeldCheckpoint(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add(seedSenderCheckpoint(f))
	f.Add(seedReceiverCheckpoint(f))
	f.Add([]byte(`{"taken_at":99999999999,"stall_cum":-5,"rate_est":1e300,"records":[{"bytes":9,"at":88888888888,"stall":77777777},{"bytes":3,"at":-4}]}`))
	f.Add([]byte(`{"taken_at":-1,"rate_est":-0.5,"sanitizer":{"last":{"PacingRate":-1e-300}},"records":[{"bytes":100,"at":123456789,"slack":-9,"stall":-9}]}`))
	f.Add([]byte(`{"config":{"Dthr":5000000,"Delta":0.5,"Wireless":true},"davg":40000000,"starget":30000,"conf_win":[0,0,0,2],"conf_n":4,"conf_idx":99}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if cp, err := UnmarshalSenderCheckpoint(data); err == nil {
			back := reencode(t, cp, UnmarshalSenderCheckpoint)
			if held, dec := runRestoredSender(cp), runRestoredSender(back); held != dec {
				t.Fatalf("sender restores differ:\n  held    %s\n  decoded %s", held, dec)
			}
		}
		if cp, err := UnmarshalReceiverCheckpoint(data); err == nil {
			back := reencode(t, cp, UnmarshalReceiverCheckpoint)
			if held, dec := runRestoredReceiver(cp), runRestoredReceiver(back); held != dec {
				t.Fatalf("receiver restores differ:\n  held    %s\n  decoded %s", held, dec)
			}
		}
		if cp, err := UnmarshalMinimizerCheckpoint(data); err == nil {
			back := reencode(t, cp, UnmarshalMinimizerCheckpoint)
			if held, dec := runRestoredMinimizer(cp), runRestoredMinimizer(back); held != dec {
				t.Fatalf("minimizer restores differ:\n  held    %s\n  decoded %s", held, dec)
			}
		}
	})
}

// reencode marshals a decoded checkpoint and decodes it again, failing
// unless the value encodes and its encoding is a fixed point.
func reencode[C interface{ Marshal() ([]byte, error) }](t *testing.T, cp C, parse func([]byte) (C, error)) C {
	t.Helper()
	b, err := cp.Marshal()
	if err != nil {
		t.Fatalf("decoded checkpoint does not encode: %v", err)
	}
	back, err := parse(b)
	if err != nil {
		t.Fatalf("re-encoded checkpoint does not decode: %v", err)
	}
	if b2, err := back.Marshal(); err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("re-encoding is not a fixed point (%v):\n  %s\n  %s", err, b, b2)
	}
	return back
}

// runRestoredSender restores cp a second after its engine starts, polls
// it over a connection that acks past every record, and renders what it
// produced — samples and final state — for comparison.
func runRestoredSender(cp SenderCheckpoint) string {
	eng := sim.New(1)
	defer eng.Shutdown()
	eng.RunUntil(units.Time(units.Second))
	src := &fakeSource{}
	tr := RestoreSenderTracker(eng, src, cp, TrackerOptions{Detached: true})
	var top uint64
	if n := tr.list.len(); n > 0 {
		top = tr.list.at(n - 1).bytes
	}
	for i := 0; i < 4; i++ {
		tr.OnWrite(top + uint64(i+1)*1448)
		src.info = tcpinfo.TCPInfo{BytesAcked: top + uint64(i)*1448, SndMSS: 1448, RcvMSS: 1448, Unacked: 2}
		eng.RunFor(10 * units.Millisecond)
		tr.PollOnce()
	}
	return fmt.Sprintf("%+v %+v", tr.Estimates().Log(), tr.Checkpoint())
}

// runRestoredReceiver is runRestoredSender's receiver twin: segments
// arrive and reads drain the restored backlog.
func runRestoredReceiver(cp ReceiverCheckpoint) string {
	eng := sim.New(1)
	defer eng.Shutdown()
	eng.RunUntil(units.Time(units.Second))
	src := &fakeSource{}
	tr := RestoreReceiverTracker(eng, src, cp, TrackerOptions{Detached: true})
	var cum uint64
	for i := 0; i < tr.list.len() && i < 8; i++ {
		cum = tr.list.at(i).bytes
	}
	for i := 0; i < 4; i++ {
		src.info = tcpinfo.TCPInfo{SegsIn: 10 * (i + 1), RcvMSS: 1448, SndMSS: 1448}
		eng.RunFor(10 * units.Millisecond)
		tr.PollOnce()
		tr.OnRead(cum+uint64(i*1448), 1448, i%2 == 0)
	}
	return fmt.Sprintf("%+v %+v", tr.Estimates().Log(), tr.Checkpoint())
}

// runRestoredMinimizer restores cp onto a tracker restored a second after
// its engine starts, runs tracker polls and checking passes over a
// connection whose acks trail the writes, and renders every pass's
// minimizer state and the final checkpoint for comparison.
func runRestoredMinimizer(cp MinimizerCheckpoint) string {
	eng := sim.New(1)
	defer eng.Shutdown()
	eng.RunUntil(units.Time(units.Second))
	src := &fakeSource{}
	tr := RestoreSenderTracker(eng, src, SenderCheckpoint{}, TrackerOptions{Detached: true})
	m := RestoreMinimizer(eng, tr, cp)
	var out strings.Builder
	for i := 0; i < 8; i++ {
		tr.OnWrite(uint64(i+1) * 4 * 1448)
		src.info = tcpinfo.TCPInfo{
			BytesAcked: uint64(i) * 2 * 1448, Unacked: 2, SndMSS: 1448, SndCwnd: 10,
			SndBuf: 1 << 16, RTT: 15 * units.Millisecond,
		}
		eng.RunFor(10 * units.Millisecond)
		tr.PollOnce()
		m.CheckOnce()
		fmt.Fprintf(&out, "%+v %v %v\n", m.minimizerState, m.tlast, src.sndBuf)
	}
	return fmt.Sprintf("%s%+v", out.String(), m.Checkpoint())
}

// seedSenderCheckpoint builds a well-formed corpus seed from a live
// tracker, so the fuzzer starts from the real wire format.
func seedSenderCheckpoint(f *testing.F) []byte {
	f.Helper()
	eng := sim.New(1)
	src := &fakeSource{}
	tr := NewSenderTrackerOpts(eng, src, TrackerOptions{Detached: true})
	tr.OnWrite(1000)
	tr.OnWrite(2500)
	src.info = tcpinfo.TCPInfo{BytesAcked: 500, SndMSS: 1448, RcvMSS: 1448, SegsOut: 2}
	tr.PollOnce()
	b, err := tr.Checkpoint().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return b
}

func seedReceiverCheckpoint(f *testing.F) []byte {
	f.Helper()
	eng := sim.New(1)
	src := &fakeSource{info: tcpinfo.TCPInfo{SegsIn: 4, RcvMSS: 1448, SndMSS: 1448}}
	tr := NewReceiverTrackerOpts(eng, src, TrackerOptions{Detached: true})
	tr.PollOnce()
	b, err := tr.Checkpoint().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return b
}
