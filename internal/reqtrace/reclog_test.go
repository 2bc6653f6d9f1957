package reqtrace

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"element/internal/units"
)

// refRecords is the record retention rule over a plain slice, as the
// tracer kept it before its records were packed: past the cap, keep
// every other record, the first included, and double the stride.
type refRecords struct {
	recs         []entry
	stride, skip int
}

func (r *refRecords) retain(e entry, maxRecords int) {
	if r.skip > 0 {
		r.skip--
		return
	}
	if len(r.recs) >= maxRecords {
		k := 0
		for i := 0; i < len(r.recs); i += 2 {
			r.recs[k] = r.recs[i]
			k++
		}
		r.recs = r.recs[:k]
		r.stride *= 2
	}
	r.skip = r.stride - 1
	r.recs = append(r.recs, e)
}

// entrySource draws entry fields from fuzz bytes. A tag byte picks how a
// field relates to the value it is encoded against: a signed step of up
// to ±127 shifted left by as much as 63 bits (ID jumps of 1<<32, sums
// that step back), an extreme, eight raw bytes, or no change. The fanout
// is drawn from 1 … 255, the fan-out degrees a request can have.
type entrySource struct{ data []byte }

var entryExtremes = [...]uint64{
	0, 1, 1 << 32, math.MaxInt64, 1 << 63 /* MinInt64 */, math.MaxUint64, math.MaxInt32 + 1,
}

func (f *entrySource) take() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *entrySource) next(base uint64) uint64 {
	switch tag := f.take(); tag % 4 {
	case 0:
		return base + uint64(int64(int8(f.take()))<<(tag>>2))
	case 1:
		return entryExtremes[int(tag>>2)%len(entryExtremes)]
	case 2:
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(f.take()) << (8 * k)
		}
		return v
	}
	return base
}

// entry draws one request: each field against the one before it.
func (f *entrySource) entry(prev entry) entry {
	e := entry{
		id:       f.next(prev.id),
		issue:    units.Time(f.next(uint64(prev.issue))),
		done:     units.Time(f.next(uint64(prev.done))),
		fanout:   1 + int32(f.take()%255),
		critical: int32(f.next(uint64(prev.critical))),
		wait:     int64(f.next(uint64(prev.wait))),
	}
	for s := range e.sum {
		e.sum[s] = int64(f.next(uint64(prev.sum[s])))
	}
	return e
}

// fuzzMaxRecords is the record cap FuzzRecordLog retains under: not a
// multiple of stats.LogBlock, so each Halve splits a block.
const fuzzMaxRecords = 100

// FuzzRecordLog holds entry's stats.Log codec and the log's Halve, as
// retain drives them, to refRecords, the retention rule over a plain
// slice. The bytes decode to a list of requests with arbitrary fields,
// retained in order reps+1 times over (up to 8·fuzzMaxRecords, so up to
// three decimations decode and encode the log again); after every
// request the count, stride and skip must match, and at the end every
// decoded entry, every Record derived from it, and Records — of the
// tracer and of one that absorbed it — against the reference sorted by
// ID.
func FuzzRecordLog(f *testing.F) {
	f.Add(uint16(0), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	// Extremes: MaxInt64 and MinInt64 sums, a fanout of 255, a critical
	// leg of MinInt32, an ID jump of 1<<32 (step 1 shifted by 32: tag
	// 32<<2), through the encoder and two decimations.
	f.Add(uint16(100), []byte{128, 1, 13, 17, 254, 25, 13, 17, 1, 2, 0, 0, 0, 0, 0, 0, 0, 128, 21, 17, 13, 3, 3, 3})
	// A fan-out run's shape — IDs a step apart, issue and done a few ms
	// on, 8 legs, stage sums that grow and fall back — decimated.
	live := []byte{0, 1, 40, 100, 40, 100, 7, 3, 40, 90, 40, 80, 40, 120, 40, 60, 40, 200, 40, 30, 40, 70}
	f.Add(uint16(100), live)
	f.Add(uint16(400), append(append([]byte{}, live...), 128, 1, 40, 156, 40, 156, 0, 0, 2, 40, 160, 40, 140, 3, 3, 3, 3, 3, 3, 3))
	f.Fuzz(func(t *testing.T, reps uint16, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		src := &entrySource{data: data}
		var recs []entry
		var prev entry
		for len(src.data) > 0 {
			prev = src.entry(prev)
			recs = append(recs, prev)
		}
		if len(recs) == 0 {
			return
		}
		tr := New()
		tr.MaxRecords = fuzzMaxRecords
		ref := refRecords{stride: 1}
		for i := range min(len(recs)*(int(reps)+1), 8*fuzzMaxRecords) {
			e := recs[i%len(recs)]
			tr.records.Keep(e, tr.maxRecords())
			ref.retain(e, fuzzMaxRecords)
			if tr.records.Len() != len(ref.recs) || tr.records.Stride() != ref.stride || tr.records.Skip() != ref.skip {
				t.Fatalf("request %d: retained %d stride %d skip %d, reference %d/%d/%d",
					i, tr.records.Len(), tr.records.Stride(), tr.records.Skip(), len(ref.recs), ref.stride, ref.skip)
			}
		}
		i := 0
		for e := range tr.records.All() {
			if i >= len(ref.recs) || e != ref.recs[i] {
				t.Fatalf("retained entry %d is %+v, reference %+v", i, e, ref.recs[min(i, len(ref.recs)-1)])
			}
			if got, want := e.record(), ref.recs[i].record(); got != want {
				t.Fatalf("record %d is %+v, reference %+v", i, got, want)
			}
			i++
		}
		if i != len(ref.recs) {
			t.Fatalf("%d entries decoded, reference %d", i, len(ref.recs))
		}
		want := make([]Record, len(ref.recs))
		for i := range ref.recs {
			want[i] = ref.recs[i].record()
		}
		slices.SortStableFunc(want, func(a, b Record) int { return cmp.Compare(a.ID, b.ID) })
		if got := tr.Records(); !slices.Equal(got, want) {
			t.Fatalf("Records: %d records, reference %d, or their contents differ", len(got), len(want))
		}
		root := New()
		root.Absorb(tr)
		if got := root.Records(); !slices.Equal(got, want) {
			t.Fatalf("Records after Absorb: %d records, reference %d, or their contents differ", len(got), len(want))
		}
	})
}
