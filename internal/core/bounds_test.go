package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"element/internal/stats"
	"element/internal/units"
)

// The oracle: the reconcile as it was before the envelope table, one walk
// of the whole truth series per sample. Nothing outside this file uses it.

func gtBand(truth stats.Series, from, to units.Time) (lo, hi units.Duration, ok bool) {
	first := true
	add := func(d units.Duration) {
		if first {
			lo, hi, first = d, d, false
			return
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if d, within := truth.At(from); within {
		add(d)
	}
	if d, within := truth.At(to); within {
		add(d)
	}
	for _, s := range truth {
		if s.At > from && s.At <= to {
			add(s.Delay)
		}
	}
	return lo, hi, !first
}

// oracleGrade is both contracts (bounded-or-flagged and per-grade
// coverage) for one side, written once over the linear gtBand.
func oracleGrade(log []Measurement, truth stats.Series, interval units.Duration, receiver bool) (bc BoundCheck, cov Coverage) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	for _, m := range log {
		lookback := 2*interval + m.ErrBound
		if receiver {
			lookback = max(receiverWindow, m.ErrBound)
		}
		lo, hi, ok := gtBand(truth, m.At.Add(-lookback), m.At)
		var dist units.Duration
		if m.Delay > hi {
			dist = m.Delay - hi
		} else if m.Delay < lo && !receiver {
			dist = lo - m.Delay
		}
		excess := dist - m.ErrBound - boundEps
		if ok {
			cov.Add(m.Confidence, excess <= 0)
		}
		bc.Samples++
		switch {
		case m.Confidence == ConfidenceLow:
			bc.Flagged++
		case ok:
			bc.Checked++
			if excess > 0 {
				bc.Violations++
				bc.WorstExcess = max(bc.WorstExcess, excess)
			}
		}
	}
	return bc, cov
}

// logPrefixes are how much packedLog appends before it resets a log and
// appends all of it: nothing, one block, and a log several chunks long.
// A reset keeps the largest chunk, so each builds another chunk layout;
// a prefix between block edges seals what the edge before it does.
var logPrefixes = []int{0, envBlock, 512}

// packedLog builds s as a stats.Log that was used before: s[:prefix]
// appended, the log reset, and all of s appended, so a grade also reads
// the chunk Reset kept.
func packedLog[T stats.Entry[T]](s []T, prefix int) *stats.Log[T] {
	var l stats.Log[T]
	for _, v := range s[:min(prefix, len(s))] {
		l.Append(v)
	}
	l.Reset()
	for _, v := range s {
		l.Append(v)
	}
	return &l
}

// checkAgainstOracle grades log against truth both ways, as sender and as
// receiver, and reports the first disagreement: once through the slice
// entry points, then from both series packed after a reset at each of
// logPrefixes and at extra.
func checkAgainstOracle(t testing.TB, log []Measurement, truth stats.Series, interval units.Duration, extra ...int) bool {
	t.Helper()
	sbc, scov := oracleGrade(log, truth, interval, false)
	rbc, rcov := oracleGrade(log, truth, interval, true)
	ok := true
	for _, prefix := range slices.Concat(logPrefixes, extra) {
		l, tr := packedLog(log, prefix), packedLog(truth, prefix)
		if bc, cov := CheckSenderLog(l, tr, interval); bc != sbc || cov != scov {
			t.Errorf("prefix %d: CheckSenderLog = %+v %+v, oracle %+v %+v", prefix, bc, cov, sbc, scov)
			ok = false
		}
		if bc, cov := CheckReceiverLog(l, tr); bc != rbc || cov != rcov {
			t.Errorf("prefix %d: CheckReceiverLog = %+v %+v, oracle %+v %+v", prefix, bc, cov, rbc, rcov)
			ok = false
		}
	}
	if got := CheckSenderBounds(log, truth, interval); got != sbc {
		t.Errorf("CheckSenderBounds = %+v, oracle %+v", got, sbc)
		ok = false
	}
	if got := CheckReceiverBounds(log, truth); got != rbc {
		t.Errorf("CheckReceiverBounds = %+v, oracle %+v", got, rbc)
		ok = false
	}
	return ok
}

// randomCase draws a sorted truth series (runs of duplicate timestamps,
// gaps longer than any window, sizes on both sides of envBlock and of a
// table level) and a log whose samples fall before, inside and after it,
// out of order, with bounds from zero to several times the series span.
func randomCase(rng *rand.Rand) (log []Measurement, truth stats.Series, interval units.Duration) {
	interval = units.Duration(1 + rng.Int63n(int64(50*units.Millisecond)))
	n := 0
	switch rng.Intn(4) {
	case 0:
		n = rng.Intn(3) // empty and one-point series
	case 1:
		n = rng.Intn(2 * envBlock)
	default:
		n = rng.Intn(40 * envBlock) // up to 40 blocks
	}
	at := units.Time(rng.Int63n(int64(units.Second)))
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0, 1: // duplicate timestamp
		case 2:
			at = at.Add(units.Duration(rng.Int63n(int64(units.Second))))
		default:
			at = at.Add(units.Duration(rng.Int63n(int64(5 * units.Millisecond))))
		}
		truth = append(truth, stats.Sample{At: at, Delay: units.Duration(rng.Int63n(int64(units.Second)))})
	}
	span := units.Duration(at) + units.Second
	nlog := rng.Intn(40)
	if rng.Intn(32) == 0 {
		nlog = longLog + rng.Intn(envBlock) // a log of many blocks and chunks
	}
	for i := nlog; i > 0; i-- {
		m := Measurement{
			At:         units.Time(rng.Int63n(int64(span))) - units.Time(500*units.Millisecond),
			Delay:      units.Duration(rng.Int63n(int64(2 * units.Second))),
			Confidence: Confidence(rng.Intn(NumConfidence)),
		}
		switch rng.Intn(4) {
		case 0: // zero bound
		case 1:
			m.ErrBound = units.Duration(rng.Int63n(int64(3 * span)))
		default:
			m.ErrBound = units.Duration(rng.Int63n(int64(300 * units.Millisecond)))
		}
		if n > 0 && rng.Intn(2) == 0 {
			// Both window edges on truth timestamps (often duplicated
			// ones): to exactly, from for the sender or the receiver
			// lookback, whichever the bound can be solved for.
			m.At = truth[rng.Intn(n)].At
			back := m.At.Sub(truth[rng.Intn(n)].At)
			if rng.Intn(2) == 0 {
				back -= 2 * interval
			}
			m.ErrBound = max(back, 0)
		}
		log = append(log, m)
	}
	return log, truth, interval
}

func TestPropertyBoundsMatchOracle(t *testing.T) {
	f := func(seed int64) bool {
		log, truth, interval := randomCase(rand.New(rand.NewSource(seed)))
		return checkAgainstOracle(t, log, truth, interval)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// longLog is a length at which a packed log spans several chunks, and
// the cases that reach it are swept more sparsely.
const longLog = 512

// TestEnvelopeEveryWindow compares every window between two timestamps of
// series whose lengths straddle the block and table-level boundaries, so
// each split between head scan, table lookup and tail scan is taken — with
// distinct, paired and tripled timestamps (window edges on duplicates,
// and on every block's first point), and with delays that put the
// extremes at random places, in the head scan (alternating sign,
// shrinking) and in the tail scan (growing). Each window is asked of the
// series as a slice and packed after a reset at each of logPrefixes;
// a series past longLog is swept at a stride of windows, since the oracle
// is linear in it.
func TestEnvelopeEveryWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	delays := map[string]func(i, n int) int{
		"random":    func(i, n int) int { return rng.Intn(1000) },
		"shrinking": func(i, n int) int { return (n - i) * (1 - 2*(i%2)) },
		"growing":   func(i, n int) int { return (i + 1) * (1 - 2*(i%2)) },
	}
	type bandFunc func(from, to units.Time) (lo, hi units.Duration, ok bool)
	check := func(t *testing.T, envs []bandFunc, truth stats.Series, from, to units.Time) {
		t.Helper()
		wlo, whi, wok := gtBand(truth, from, to)
		for k, band := range envs {
			lo, hi, ok := band(from, to)
			if lo != wlo || hi != whi || ok != wok {
				t.Fatalf("layout %d, window (%v, %v]: band = %v %v %v, oracle %v %v %v", k, from, to, lo, hi, ok, wlo, whi, wok)
			}
		}
	}
	ns := []int{1, envBlock - 1, envBlock, envBlock + 1, 3*envBlock - 1, 4 * envBlock, 5*envBlock + 7, longLog + 2*envBlock + 5}
	for _, n := range ns {
		for name, delay := range delays {
			// A nanosecond apart, the search for "not earlier than t" (as
			// "later than t-1") lands exactly on the neighbouring point.
			for _, step := range []units.Time{units.Time(units.Millisecond), 1} {
				for _, perStamp := range []int{1, 2, 3} {
					stride := 1
					if n > longLog {
						if perStamp > 1 {
							continue
						}
						stride = 3
					}
					t.Run(fmt.Sprintf("n=%d/%s/step=%d/x%d", n, name, step, perStamp), func(t *testing.T) {
						truth := make(stats.Series, n)
						for i := range truth {
							truth[i] = stats.Sample{At: units.Time(i/perStamp) * step, Delay: units.Duration(delay(i, n))}
						}
						view := newEnvelope(sliceBlocks[stats.Sample](truth), make([]stats.Sample, cacheSlots*envBlock))
						envs := []bandFunc{view.band}
						for _, prefix := range logPrefixes {
							packed := newEnvelope(packedLog(truth, prefix), make([]stats.Sample, cacheSlots*envBlock))
							envs = append(envs, packed.band)
						}
						last := (n-1)/perStamp + 1
						for i := -1; i <= last; i += stride {
							// Far ends ascending, then descending: the
							// search leaves its hint in both directions.
							for j := i; j <= last; j += stride {
								check(t, envs, truth, units.Time(i)*step, units.Time(j)*step)
							}
							for j := last; j >= i; j -= stride {
								check(t, envs, truth, units.Time(i)*step, units.Time(j)*step)
							}
						}
					})
				}
			}
		}
	}
}

// TestInPlaceGradeAllocatesOnlyTheTable pins what grading a fleet's packed
// series costs: the envelope table and one scratch for decoded blocks,
// and nothing per sample, per block or per chunk.
func TestInPlaceGradeAllocatesOnlyTheTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var log []Measurement
	var truth stats.Series
	for i := 0; i < 3*longLog; i++ {
		at := units.Time(i) * units.Time(units.Millisecond)
		truth = append(truth, stats.Sample{At: at, Delay: units.Duration(rng.Int63n(int64(units.Second)))})
		if i%2 == 0 {
			log = append(log, Measurement{At: at, Delay: units.Duration(rng.Int63n(int64(units.Second))),
				ErrBound: units.Duration(rng.Int63n(int64(100 * units.Millisecond))), Confidence: Confidence(i % NumConfidence)})
		}
	}
	l, tr := packedLog(log, 513), packedLog(truth, 513)
	allocs := testing.AllocsPerRun(20, func() {
		CheckSenderLog(l, tr, 10*units.Millisecond)
		CheckReceiverLog(l, tr)
	})
	if allocs != 2*2 {
		t.Fatalf("two packed grades allocate %.1f times, want 2 each (the table and the block scratch)", allocs)
	}
}

// boundsStride is the bytes one fuzzed truth point or log sample consumes.
const boundsStride = 8

// decodeBoundsCase splits fuzz bytes into a truth series (time deltas, so
// it is sorted whatever the bytes; a zero delta repeats a timestamp) and a
// log with arbitrary timestamps, bounds and grades.
func decodeBoundsCase(data []byte) (log []Measurement, truth stats.Series, interval units.Duration) {
	if len(data) < 2 {
		return nil, nil, 0
	}
	nlog := int(data[0]) % 32
	interval = units.Duration(data[1]) * units.Millisecond
	data = data[2:]
	var at units.Time
	for ; len(data) >= boundsStride; data = data[boundsStride:] {
		a := units.Duration(binary.LittleEndian.Uint16(data[0:]))
		b := units.Duration(binary.LittleEndian.Uint32(data[2:]) % (1 << 22))
		if len(log) < nlog {
			log = append(log, Measurement{
				At:         units.Time(a * 100 * units.Microsecond),
				Delay:      b * units.Microsecond,
				ErrBound:   units.Duration(binary.LittleEndian.Uint16(data[6:])>>2) * units.Millisecond / 8,
				Confidence: Confidence(data[6] % byte(NumConfidence)),
			})
			continue
		}
		at = at.Add(a * units.Microsecond)
		truth = append(truth, stats.Sample{At: at, Delay: b * units.Microsecond})
	}
	return log, truth, interval
}

// FuzzBoundsMatchOracle: for any sorted truth series and any log, the
// graders agree field for field with the one-walk-per-sample oracle, from
// slices and from packed logs, one of them reset after a prefix the
// fuzzer chooses.
func FuzzBoundsMatchOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 10, 1, 2, 3, 4, 5, 6, 7, 8}) // a log and no truth
	seed := make([]byte, 2+boundsStride*(8+5*envBlock))
	for i := range seed {
		seed[i] = byte(i * 13)
	}
	seed[0] = 8
	f.Add(seed)
	dup := make([]byte, 2+boundsStride*(4+3*envBlock)) // every timestamp equal
	dup[0] = 4
	f.Add(dup)
	f.Fuzz(func(t *testing.T, data []byte) {
		log, truth, interval := decodeBoundsCase(data)
		checkAgainstOracle(t, log, truth, interval, len(data)%(len(truth)+1))
	})
}
