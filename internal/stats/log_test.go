package stats

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"element/internal/units"
)

// checkLog compares every read the log offers against the plain slice it
// stands in for: Len, At at every index, All, Collect, and each block by
// BlockTime and AppendBlock.
func checkLog[T interface {
	Entry[T]
	comparable
}](t testing.TB, l *Log[T], ref []T) {
	t.Helper()
	if l.Len() != len(ref) {
		t.Fatalf("Len %d, reference has %d", l.Len(), len(ref))
	}
	for i, want := range ref {
		if got := l.At(i); got != want {
			t.Fatalf("At(%d) = %+v, reference %+v", i, got, want)
		}
	}
	if got := slices.Collect(l.All()); !slices.Equal(got, ref) {
		t.Fatalf("All diverges from the reference (%d elements, reference %d)", len(got), len(ref))
	}
	got := l.Collect()
	if !slices.Equal(got, ref) || (len(ref) == 0) != (got == nil) || cap(got) != len(got) {
		t.Fatalf("Collect diverges from the reference: %d elements, cap %d, reference %d", len(got), cap(got), len(ref))
	}
	for b := 0; b*LogBlock < len(ref); b++ {
		want := ref[b*LogBlock : min(len(ref), (b+1)*LogBlock)]
		if got := l.BlockTime(b); got != want[0].Time() {
			t.Fatalf("BlockTime(%d) = %v, reference %v", b, got, want[0].Time())
		}
		if got := l.AppendBlock(nil, b); !slices.Equal(got, want) {
			t.Fatalf("AppendBlock(%d) diverges from the reference", b)
		}
	}
}

// sample is the i-th sample of a series shaped like ground truth: time
// steps of a few hundred microseconds, the delay wandering, segment-sized
// weights.
func sample(rng *rand.Rand, prev Sample) Sample {
	return Sample{
		At:    prev.At.Add(units.Duration(rng.Int63n(int64(500 * units.Microsecond)))),
		Delay: prev.Delay + units.Duration(rng.Int63n(int64(units.Millisecond))) - units.Duration(units.Millisecond/2),
		Bytes: 1448 * (1 + rng.Intn(4)),
	}
}

// TestLogMatchesSlice drives a Log and a plain slice through the two
// shapes the observers use, interleaved at random: long runs of appends
// read once (a) and drain-every-poll (b) — plus decimations (Halve).
func TestLogMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l Log[Sample]
		var ref []Sample
		var last Sample
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // a burst of appends, sometimes many blocks and chunks long
				n := 1 + rng.Intn(40)
				if rng.Intn(8) == 0 {
					n = 16*LogBlock + rng.Intn(48*LogBlock)
				}
				for i := 0; i < n; i++ {
					last = sample(rng, last)
					l.Append(last)
					ref = append(ref, last)
				}
			case op < 7: // (a) the consolidating read; later appends must leave it intact
				got := l.Collect()
				snapshot := slices.Clone(got)
				last = sample(rng, last)
				l.Append(last)
				ref = append(ref, last)
				if !slices.Equal(got, snapshot) {
					t.Fatalf("seed %d step %d: an append modified the slice Collect returned", seed, step)
				}
			case op < 9: // decimation
				l.Halve()
				ref = everyOther(ref)
			default: // (b) drain
				l.Reset()
				ref = ref[:0]
			}
			checkLog(t, &l, ref)
		}
	}
}

// everyOther is what Halve keeps of s: s[0], s[2], … (s[::2]).
func everyOther[T any](s []T) []T {
	var kept []T
	for i := 0; i < len(s); i += 2 {
		kept = append(kept, s[i])
	}
	return kept
}

// TestLogHalveEveryLength halves logs of lengths on both sides of every
// block edge, up to many blocks and chunks long, and checks what is kept,
// then that appending resumes correctly from there.
func TestLogHalveEveryLength(t *testing.T) {
	const n = 40*LogBlock + 7
	rng := rand.New(rand.NewSource(1))
	var all []Sample
	var last Sample
	for i := 0; i < n+LogBlock+3; i++ {
		last = sample(rng, last)
		all = append(all, last)
	}
	for m := 0; m <= n; m++ {
		if d := m % LogBlock; d > 1 && d < LogBlock-1 && m%7 != 0 {
			continue
		}
		var l Log[Sample]
		for _, s := range all[:m] {
			l.Append(s)
		}
		l.Halve()
		ref := everyOther(all[:m])
		checkLog(t, &l, ref)
		for _, s := range all[n:] {
			l.Append(s)
			ref = append(ref, s)
		}
		checkLog(t, &l, ref)
	}
}

// TestLogDrainEveryPollZeroAlloc pins shape (b): a log drained after every
// batch of up to 512 entries keeps the chunk that batch needs, as
// s = s[:0] kept its slice, and the steady state
// allocates nothing — from a fresh log, and after a long run was drained.
// The drain is the one the fleets run, Estimates.DrainLog's All then
// Reset.
func TestLogDrainEveryPollZeroAlloc(t *testing.T) {
	for _, batch := range []int{1, 8, 17, 100, 512} {
		for _, long := range []bool{false, true} {
			var l Log[Sample]
			if long {
				for i := 0; i < 100*LogBlock; i++ {
					l.Append(Sample{At: units.Time(i), Bytes: i})
				}
				l.Reset()
			}
			sum, at := 0, units.Time(0)
			poll := func() {
				for i := 0; i < batch; i++ {
					at += 137
					l.Append(Sample{At: at, Delay: units.Duration(i * 1000), Bytes: 1448})
				}
				for s := range l.All() {
					sum += s.Bytes
				}
				l.Reset()
			}
			poll() // AllocsPerRun's own warm-up poll is the second
			if avg := testing.AllocsPerRun(200, poll); avg != 0 {
				t.Fatalf("batch %d (long run first: %v): drain-every-poll steady state allocates %.2f times per poll, want 0", batch, long, avg)
			}
		}
	}
}

// TestLogAllocatesWhatItHolds pins what n appends to a fresh log cost in
// bytes: the tail's one array of LogBlock entries, the chunks, each
// allocated once and holding the index too, and the chunk list, which
// grows by doubling (every array it had, together, is under twice its
// last). The buffer a block is encoded in is shared, not the log's. It
// also holds "never moves": no chunk's bytes are ever reallocated once
// the chunk exists.
func TestLogAllocatesWhatItHolds(t *testing.T) {
	for _, n := range []int{1, 31, 32, 33, 300, 1000, 5000, 40000} {
		rng := rand.New(rand.NewSource(int64(n)))
		in := make([]Sample, n)
		var last Sample
		for i := range in {
			last = sample(rng, last)
			in[i] = last
		}
		var l Log[Sample]
		allocated := ^uint64(0)
		for try := 0; try < 3; try++ { // the least of three, should anything else allocate meanwhile
			l = Log[Sample]{}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, s := range in {
				l.Append(s)
			}
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		chunks := 0
		for _, c := range l.chunks {
			chunks += cap(c.b)
		}
		tail := LogBlock * int(unsafe.Sizeof(Sample{}))
		list := 2 * cap(l.chunks) * int(unsafe.Sizeof(chunk{}))
		if want := tail + chunks + list; allocated > uint64(want) {
			t.Errorf("n=%d: %d appends allocated %d B, want at most %d (%d B of tail, %d B of chunks, %d B of chunk list)",
				n, n, allocated, want, tail, chunks, list)
		}

		var l2 Log[Sample]
		var data []*byte
		for _, s := range in {
			l2.Append(s)
			for k := len(data); k < len(l2.chunks); k++ {
				data = append(data, unsafe.SliceData(l2.chunks[k].b))
			}
		}
		for k, c := range l2.chunks {
			if unsafe.SliceData(c.b) != data[k] {
				t.Fatalf("n=%d: chunk %d moved after it was started", n, k)
			}
		}
		checkLog(t, &l2, in)
	}
}

// TestLogTrimHoldsWhatItKeeps: a trimmed log's last chunk holds exactly
// its bytes and index and its tail exactly its entries, at lengths on
// both sides of block and chunk edges, and a trimmed empty log, fresh or
// reset, holds nothing.
func TestLogTrimHoldsWhatItKeeps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 31, 32, 33, 64, 300, 5000} {
		in := make([]Sample, n)
		var last Sample
		for i := range in {
			last = sample(rng, last)
			in[i] = last
		}
		for _, reset := range []bool{false, true} {
			var l Log[Sample]
			for _, s := range in {
				l.Append(s)
			}
			want := in
			if reset {
				l.Reset()
				want = nil
			}
			l.Trim()
			if k := len(l.chunks) - 1; k >= 0 {
				if c := l.chunks[k]; cap(c.b) != len(c.b)+headBytes*c.heads {
					t.Errorf("n=%d reset=%v: the last chunk holds %d B for %d B of entries and index", n, reset, cap(c.b), len(c.b)+headBytes*c.heads)
				}
			}
			if cap(l.tail) != len(l.tail) || len(want) == 0 && (l.chunks != nil || l.tail != nil) {
				t.Errorf("n=%d reset=%v: %d chunks and a tail of %d in %d kept for %d entries", n, reset, len(l.chunks), len(l.tail), cap(l.tail), len(want))
			}
			checkLog(t, &l, want)
		}
	}
}

// TestLogNeverRecopies bounds what a long log costs to build in
// allocations: the tail's array, one per chunk, the chunk list's
// doublings, and two to spare (one is the shared seal buffer, in a
// process that has none free yet).
func TestLogNeverRecopies(t *testing.T) {
	const n = 200 * 512
	rng := rand.New(rand.NewSource(1))
	in := make([]Sample, n)
	var last Sample
	for i := range in {
		last = sample(rng, last)
		in[i] = last
	}
	var l Log[Sample]
	perRun := testing.AllocsPerRun(1, func() {
		l = Log[Sample]{}
		for _, s := range in {
			l.Append(s)
		}
	})
	if max := float64(3 + len(l.chunks) + bits.Len(uint(len(l.chunks))) + 1); perRun > max {
		t.Fatalf("%d appends made %.0f allocations, want at most %.0f (the tail, %d chunks, the chunk list's doublings and two spare)", n, perRun, max, len(l.chunks))
	}
}

// BenchmarkLogAppend builds a log of n samples and reports what that
// allocated against what a plain slice keeps: B/op over kept-B/op is
// about 0.3 for the packed log at these lengths, and about 5 for an
// append-grown slice. The drain rows are the other shape: ns/op per poll
// of four samples appended, read and dropped; both allocate nothing.
func BenchmarkLogAppend(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		rng := rand.New(rand.NewSource(1))
		in := make([]Sample, n)
		var last Sample
		for i := range in {
			last = sample(rng, last)
			in[i] = last
		}
		b.Run("log/n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var l Log[Sample]
				for _, s := range in {
					l.Append(s)
				}
			}
			b.ReportMetric(float64(n*24), "kept-B/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/append")
		})
		b.Run("slice/n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var s []Sample
				for _, v := range in {
					s = append(s, v)
				}
				sinkSamples = s
			}
			b.ReportMetric(float64(n*24), "kept-B/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/append")
		})
	}
	const batch = 4
	b.Run("drain/log", func(b *testing.B) {
		var l Log[Sample]
		poll := func(i int) {
			for j := 0; j < batch; j++ {
				l.Append(Sample{At: units.Time(i*batch + j), Bytes: j})
			}
			for v := range l.All() {
				sinkBytes += v.Bytes
			}
			l.Reset()
		}
		poll(0) // the chunk and index the drains keep
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			poll(i)
		}
	})
	b.Run("drain/slice", func(b *testing.B) {
		s := make([]Sample, 0, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				s = append(s, Sample{At: units.Time(i*batch + j), Bytes: j})
			}
			for _, v := range s {
				sinkBytes += v.Bytes
			}
			s = s[:0]
		}
		sinkSamples = s
	})
}

var (
	sinkSamples []Sample
	sinkBytes   int
)
