package stats_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"element/internal/core"
	"element/internal/stats"
	"element/internal/units"
	"element/internal/waterfall"
)

// The four codecs a Log holds, each as its entry built from one int64 per
// field: a field narrower than 64 bits takes the low bits. A
// measurement's ErrBound is its eighth int64 plus the jitter |ΔDelay| from
// the measurement built before it, as the trackers set it: a run that
// holds the eighth steady is one the codec predicts, and every ErrBound
// is still reachable.
var codecs = []func(t *testing.T, data []byte){
	func(t *testing.T, data []byte) {
		fuzzCodec(t, data, 3, func(f []int64) stats.Sample {
			return stats.Sample{At: units.Time(f[0]), Delay: units.Duration(f[1]), Bytes: int(f[2])}
		})
	},
	func(t *testing.T, data []byte) {
		var prev units.Duration
		fuzzCodec(t, data, 8, func(f []int64) core.Measurement {
			delay := units.Duration(f[1])
			jitter := max(delay-prev, prev-delay) // |MinInt64| wraps to itself
			prev = delay
			return core.Measurement{
				At: units.Time(f[0]), Delay: delay, Bytes: int(f[2]),
				Cwnd: int32(f[3]), Ssthresh: int32(f[4]), RTT: units.Duration(f[5]),
				Confidence: core.Confidence(f[6]), ErrBound: units.Duration(f[7]) + jitter,
			}
		})
	},
	func(t *testing.T, data []byte) {
		fuzzCodec(t, data, 4, func(f []int64) waterfall.Drop {
			return waterfall.Drop{Seq: uint64(f[0]), Gen: int(f[1]), At: units.Time(f[2]), Kind: waterfall.DropKind(f[3])}
		})
	},
	func(t *testing.T, data []byte) {
		fuzzCodec(t, data, 3, func(f []int64) waterfall.Resize {
			return waterfall.Resize{At: units.Time(f[0]), From: int(f[1]), To: int(f[2])}
		})
	},
}

// The operations FuzzLog draws, each an opcode byte and an argument byte,
// some followed by per-field bytes.
const (
	opRun   = iota // 4·arg+1 entries, each field stepping by int8 << shift (two bytes per field)
	opRaw          // one entry, each field eight little-endian bytes
	opHalve        // Halve: every other entry kept, the first included
	opDrain        // Reset
	opTrim         // Trim: spare room given back, the entries kept
	numOps
)

// maxFuzzLen caps FuzzLog's logs: every check decodes the whole log once
// per index.
const maxFuzzLen = 64 * stats.LogBlock

// FuzzLog is a differential fuzzer: a Log of one of the four codecs (the
// first byte picks it) and the plain slice it stands in for, driven through
// runs of appends whose fields step by any amount — forwards, backwards,
// not at all, wrapping — single entries with any field values,
// decimations, drains and trims, with Len, At, All, Collect and every
// block compared after each operation.
func FuzzLog(f *testing.F) {
	nfields := []int{3, 8, 4, 3} // per codec, in the order of codecs
	raw := func(codec int, x uint64) []byte {
		b := []byte{opRaw, 0}
		for range nfields[codec] {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		return b
	}
	run := func(codec int, arg byte, step int8, shift byte) []byte {
		b := []byte{opRun, arg}
		for range nfields[codec] {
			b = append(b, byte(step), shift)
		}
		return b
	}
	// measurements is a run of 4·arg+1 measurements with every field
	// steady but Delay, which steps by step << shift: ErrBound follows the
	// jitter alone.
	measurements := func(arg byte, step int8, shift byte) []byte {
		b := run(1, arg, 0, 0)
		b[2+2], b[2+2+1] = byte(step), shift
		return b
	}
	seed := func(codec int, ops ...[]byte) {
		f.Add(slices.Concat(append([][]byte{{byte(codec)}}, ops...)...))
	}
	// MinInt64 and MaxInt64 in every field, back and forth, then a run
	// stepping by MinInt64: every difference wraps.
	for c := range codecs {
		seed(c, raw(c, math.MaxInt64), raw(c, 1<<63), raw(c, math.MaxInt64), raw(c, 0), raw(c, 1<<63), run(c, 40, -1, 63))
	}
	seed(0, run(0, 100, -3, 20), run(0, 9, 127, 40))                  // time going backwards, then far forwards
	seed(1, run(1, 120, 0, 0))                                        // equal consecutive entries, many blocks long
	seed(2, run(2, 200, 5, 30), []byte{opDrain, 0}, run(2, 70, 1, 3), // Reset and reuse, a halve, again
		[]byte{opHalve, 100}, run(2, 3, 1, 0), []byte{opDrain, 0}, run(2, 2, 7, 1))
	seed(3, run(3, 255, 127, 56), []byte{opHalve, 255, opHalve, 128}, run(3, 1, 1, 1)) // long varints across chunk ends, halved twice
	// ErrBound as the trackers set it, a steady bound plus a jitter that
	// changes every five entries, many blocks long, so the predictor
	// hits; then Delay stepping by MinInt64, whose |ΔDelay| wraps.
	var jitter [][]byte
	for k := range 24 {
		jitter = append(jitter, measurements(1, int8(k*37%251-125), byte(k%23)))
	}
	seed(1, append(jitter, run(1, 2, 3, 40))...)
	seed(1, measurements(20, -1, 63), raw(1, 1<<62), measurements(20, -1, 63), []byte{opTrim, 0}, measurements(3, 5, 60))
	// Trims of an empty log, a tail-only one, one ending in a partial
	// chunk and one just trimmed, each followed by appends, a halve and a
	// drain.
	for c := range codecs {
		seed(c, []byte{opTrim, 0}, run(c, 2, 3, 4), []byte{opTrim, 0}, run(c, 60, -5, 11), []byte{opTrim, 0, opTrim, 0},
			run(c, 9, 1, 30), []byte{opHalve, 0, opTrim, 0}, run(c, 40, 2, 2), []byte{opDrain, 0, opTrim, 0}, run(c, 1, 1, 1))
	}
	// Halves of a log shorter than one block, of one with a partial tail
	// and of one many blocks long, each followed by appends.
	for c := range codecs {
		seed(c, run(c, 3, 1, 2), []byte{opHalve, 0}, run(c, 20, -2, 9), []byte{opHalve, 0},
			run(c, 50, 5, 17), []byte{opHalve, 0}, run(c, 1, 1, 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			t.Skip() // each operation's check decodes the whole log once per index
		}
		codecs[int(data[0])%len(codecs)](t, data[1:])
	})
}

func fuzzCodec[T interface {
	stats.Entry[T]
	comparable
}](t *testing.T, data []byte, nfields int, entry func(f []int64) T) {
	var l stats.Log[T]
	var ref []T
	fields := make([]int64, nfields) // the last appended entry's
	for len(data) >= 2 {
		op, arg := int(data[0])%numOps, int(data[1])
		data = data[2:]
		switch op {
		case opRun:
			if len(data) < 2*nfields {
				return
			}
			steps := make([]int64, nfields)
			for i := range steps {
				steps[i] = int64(int8(data[2*i])) << (data[2*i+1] % 64)
			}
			data = data[2*nfields:]
			for range min(4*arg+1, maxFuzzLen-len(ref)) {
				for i := range fields {
					fields[i] += steps[i]
				}
				v := entry(fields)
				l.Append(v)
				ref = append(ref, v)
			}
		case opRaw:
			if len(data) < 8*nfields {
				return
			}
			for i := range fields {
				fields[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
			}
			data = data[8*nfields:]
			if len(ref) < maxFuzzLen {
				v := entry(fields)
				l.Append(v)
				ref = append(ref, v)
			}
		case opHalve:
			l.Halve()
			var kept []T
			for i := 0; i < len(ref); i += 2 {
				kept = append(kept, ref[i])
			}
			ref = kept
		case opDrain:
			l.Reset()
			ref = ref[:0]
		case opTrim:
			l.Trim()
		}
		stats.CheckLog(t, &l, ref)
	}
}

// fanoutMeasurements is n measurements shaped like a fanout_rpc
// connection's sender log: polls 10 ms apart with one to nine samples
// each, all stamped at the poll; delays of up to 10 ms and legs of
// 140–380 B; a cwnd and ssthresh that rarely move, an RTT that moves one
// poll in ten and a confidence that changes one poll in four; and
// ErrBound the trackers' way, a base bound redrawn one poll in three plus
// the jitter |ΔDelay|.
func fanoutMeasurements(n int) []core.Measurement {
	rng := rand.New(rand.NewSource(1))
	out := make([]core.Measurement, 0, n)
	m := core.Measurement{Cwnd: 15, Ssthresh: 15, RTT: 25 * units.Millisecond, Confidence: core.ConfidenceMedium}
	base := 20 * units.Millisecond
	for len(out) < n {
		m.At += units.Time(10 * units.Millisecond)
		if rng.Intn(50) == 0 {
			m.Cwnd += int32(rng.Intn(5)) - 2
		}
		if rng.Intn(10) == 0 {
			m.RTT += units.Duration(rng.Int63n(int64(2*units.Millisecond))) - units.Millisecond
		}
		if rng.Intn(4) == 0 {
			m.Confidence = core.Confidence(rng.Intn(3))
		}
		if rng.Intn(3) == 0 {
			base = 20*units.Millisecond + units.Duration(rng.Int63n(int64(20*units.Millisecond)))
		}
		for k := 1 + rng.Intn(9); k > 0 && len(out) < n; k-- {
			prev := m.Delay
			m.Delay = units.Duration(rng.Int63n(int64(10 * units.Millisecond)))
			m.Bytes = 140 + rng.Intn(241)
			m.ErrBound = base + max(m.Delay-prev, prev-m.Delay)
			out = append(out, m)
		}
	}
	return out
}

// BenchmarkLogRead reads a trimmed fanout_rpc-shaped measurement log the
// two ways its readers do: All, entry by entry (exp's meanDelay, the
// digests), and AppendBlock into one reused buffer (the graders). It
// reports ns/entry and B/entry, what the log holds per entry it keeps.
func BenchmarkLogRead(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		in := fanoutMeasurements(n)
		var l stats.Log[core.Measurement]
		for _, m := range in {
			l.Append(m)
		}
		l.Trim()
		held := float64(stats.HeldBytes(&l)) / float64(n)
		b.Run("all/n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			var sum units.Duration
			for i := 0; i < b.N; i++ {
				for m := range l.All() {
					sum += m.Delay
				}
			}
			sinkDelay = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
			b.ReportMetric(held, "B/entry")
		})
		b.Run("block/n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			var sum units.Duration
			buf := make([]core.Measurement, 0, stats.LogBlock)
			for i := 0; i < b.N; i++ {
				for blk := 0; blk*stats.LogBlock < n; blk++ {
					for _, m := range l.AppendBlock(buf[:0], blk) {
						sum += m.Delay
					}
				}
			}
			sinkDelay = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
			b.ReportMetric(held, "B/entry")
		})
	}
}

var sinkDelay units.Duration

// TestLogReadsConcurrently reads logs of three entry types from four
// goroutines at once, each reading its own, as a fleet's shard workers
// do: the seal buffers and block arrays every log shares must keep each
// read whole and each type's arrays apart (run it under -race).
func TestLogReadsConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n < 20*stats.LogBlock; n += 37 + g {
				samples := make([]stats.Sample, n)
				drops := make([]waterfall.Drop, n)
				for i := range n {
					samples[i] = stats.Sample{At: units.Time(i * 1000), Delay: units.Duration(i * g), Bytes: 1448}
					drops[i] = waterfall.Drop{Seq: uint64(i * 1448), Gen: g, At: units.Time(i)}
				}
				if !readsMatch(samples) || !readsMatch(fanoutMeasurements(n)) || !readsMatch(drops) {
					t.Errorf("goroutine %d: a log of %d entries read back wrong", g, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// readsMatch reports whether a log of ref reads back ref through All and
// At.
func readsMatch[T interface {
	stats.Entry[T]
	comparable
}](ref []T) bool {
	var l stats.Log[T]
	for _, v := range ref {
		l.Append(v)
	}
	if !slices.Equal(slices.Collect(l.All()), ref) {
		return false
	}
	for i, v := range ref {
		if l.At(i) != v {
			return false
		}
	}
	return true
}
