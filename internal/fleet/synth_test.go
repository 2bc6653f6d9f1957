package fleet

import (
	"math/rand"
	"testing"

	"element/internal/units"
)

// refDelayAt, refAcked and refRead are the synthetic counters as first
// written, drawing the epoch once for the stall test and again for the
// delay: the oracle the one-draw forms must equal bit for bit.
func refDelayAt(f synthFlow, t units.Time) int64 {
	const ep = int64(synthEpoch)
	k := int64(t) / ep
	kind, amp := f.epochKind(k)
	if kind == synthStall {
		return f.base
	}
	x := int64(t) % ep
	var tri int64
	if x < ep/2 {
		tri = amp * 2 * x / ep
	} else {
		tri = amp * 2 * (ep - x) / ep
	}
	return f.base + tri
}

func refAcked(f synthFlow, t units.Time) uint64 {
	const ep = int64(synthEpoch)
	k := int64(t) / ep
	if kind, _ := f.epochKind(k); kind == synthStall {
		return bytesAt(f.rate, k*ep-f.base)
	}
	return bytesAt(f.rate, int64(t)-refDelayAt(f, t))
}

func refRead(f synthFlow, t units.Time) uint64 {
	return refAcked(f, units.Time(int64(t)-f.rbase))
}

// TestSynthCountersMatchTwoDrawForms holds acked and read to the
// two-draw oracle over random flows and instants: early instants whose
// read lag reaches before zero, epoch edges, and instants hours in. The
// draws must cover stall, burst and normal epochs.
func TestSynthCountersMatchTwoDrawForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const ep = int64(synthEpoch)
	var kinds [3]int
	for i := 0; i < 200_000; i++ {
		f := synthParams(rng.Int63(), rng.Int31())
		var at int64
		switch i % 3 {
		case 0:
			at = rng.Int63n(int64(10 * units.Millisecond))
		case 1:
			at = rng.Int63n(1<<20)*ep + rng.Int63n(5) - 2
		default:
			at = rng.Int63n(int64(4 * 3600 * units.Second))
		}
		now := units.Time(at)
		if got, want := f.acked(now), refAcked(f, now); got != want {
			t.Fatalf("flow %+v at %d ns: acked %d, oracle %d", f, at, got, want)
		}
		if got, want := f.read(now), refRead(f, now); got != want {
			t.Fatalf("flow %+v at %d ns: read %d, oracle %d", f, at, got, want)
		}
		kind, _ := f.epochKind(at / ep)
		kinds[kind]++
	}
	if kinds[synthNormal] == 0 || kinds[synthBurst] == 0 || kinds[synthStall] == 0 {
		t.Fatalf("epoch kinds drawn %v: a case is vacuous", kinds)
	}
}
