package stats_test

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"element/internal/core"
	"element/internal/stats"
	"element/internal/units"
	"element/internal/waterfall"
)

// The four codecs a Log holds, each as its entry built from one int64 per
// varint it writes: a field narrower than 64 bits takes the low bits.
var codecs = []func(t *testing.T, data []byte){
	func(t *testing.T, data []byte) {
		fuzzCodec(t, data, 3, func(f []int64) stats.Sample {
			return stats.Sample{At: units.Time(f[0]), Delay: units.Duration(f[1]), Bytes: int(f[2])}
		})
	},
	func(t *testing.T, data []byte) {
		fuzzCodec(t, data, 8, func(f []int64) core.Measurement {
			return core.Measurement{
				At: units.Time(f[0]), Delay: units.Duration(f[1]), Bytes: int(f[2]),
				Cwnd: int32(f[3]), Ssthresh: int32(f[4]), RTT: units.Duration(f[5]),
				Confidence: core.Confidence(f[6]), ErrBound: units.Duration(f[7]),
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
	numOps
)

// maxFuzzLen caps FuzzLog's logs: every check decodes the whole log once
// per index.
const maxFuzzLen = 64 * stats.LogBlock

// FuzzLog is a differential fuzzer: a Log of one of the four codecs (the
// first byte picks it) and the plain slice it stands in for, driven through
// runs of appends whose fields step by any amount — forwards, backwards,
// not at all, wrapping — single entries with any field values,
// decimations and drains, with Len, At, All, Collect and every block
// compared after each operation.
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
				l.Append(entry(fields))
				ref = append(ref, entry(fields))
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
				l.Append(entry(fields))
				ref = append(ref, entry(fields))
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
		}
		stats.CheckLog(t, &l, ref)
	}
}
