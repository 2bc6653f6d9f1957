package stats

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// checkLog compares every read the log offers against the plain slice it
// stands in for. Slice is left to the caller: it consolidates, and the
// property test wants to choose when that happens.
func checkLog(t *testing.T, l *Log[int], ref []int) {
	t.Helper()
	if l.Len() != len(ref) {
		t.Fatalf("Len %d, reference has %d", l.Len(), len(ref))
	}
	i := 0
	for v := range l.All() {
		if v != ref[i] {
			t.Fatalf("All: element %d is %d, reference %d", i, v, ref[i])
		}
		i++
	}
	if i != len(ref) {
		t.Fatalf("All yielded %d elements, reference has %d", i, len(ref))
	}
	if n := len(ref); n > 0 {
		for _, j := range []int{0, n / 2, n - 1} {
			if got := *l.At(j); got != ref[j] {
				t.Fatalf("At(%d) = %d, reference %d", j, got, ref[j])
			}
		}
	}
}

// TestLogMatchesSlice drives a Log and a plain slice through the two
// shapes the observers use, interleaved at random: long runs of appends
// read once (a) and drain-every-poll (b) — plus the in-place decimation
// the waterfall recorder does over At and Truncate.
func TestLogMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l Log[int]
		var ref []int
		next := 0
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // a burst of appends, sometimes several chunks long
				n := 1 + rng.Intn(40)
				if rng.Intn(8) == 0 {
					n = logChunk + rng.Intn(3*logChunk)
				}
				for i := 0; i < n; i++ {
					l.Append(next)
					ref = append(ref, next)
					next++
				}
			case op < 8: // (a) the consolidating read; the result must stay intact
				got := l.Slice()
				if !slices.Equal(got, ref) {
					t.Fatalf("seed %d step %d: Slice diverged at length %d", seed, step, len(ref))
				}
				snapshot := slices.Clone(got)
				l.Append(next)
				ref = append(ref, next)
				next++
				if !slices.Equal(got, snapshot) {
					t.Fatalf("seed %d step %d: an append modified the slice Slice returned", seed, step)
				}
			case op < 9: // decimate in place: keep every other element
				k := 0
				for i := 0; i < l.Len(); i += 2 {
					*l.At(k) = *l.At(i)
					ref[k] = ref[i]
					k++
				}
				l.Truncate(k)
				ref = ref[:k]
			default: // (b) drain
				l.Truncate(0)
				ref = ref[:0]
			}
			checkLog(t, &l, ref)
		}
	}
}

// TestLogTruncateEveryLength cuts a chunked log at every length and
// checks what is left, then that appending resumes correctly from there.
func TestLogTruncateEveryLength(t *testing.T) {
	const n = 3*logChunk + 7
	for cut := 0; cut <= n; cut += 37 {
		var l Log[int]
		var ref []int
		for i := 0; i < n; i++ {
			l.Append(i)
			ref = append(ref, i)
		}
		l.Truncate(cut)
		ref = ref[:cut]
		checkLog(t, &l, ref)
		for i := 0; i < logChunk+3; i++ {
			l.Append(-i)
			ref = append(ref, -i)
		}
		checkLog(t, &l, ref)
		if !slices.Equal(l.Slice(), ref) {
			t.Fatalf("cut %d: Slice diverged after truncate and refill", cut)
		}
	}
}

// TestLogClip holds Clip to its one job at every length: the contents are
// untouched, a chunked log's last chunk is left with no spare capacity, a
// log that is one slice keeps that slice, and appends after a Clip still
// read back right.
func TestLogClip(t *testing.T) {
	for n := 0; n <= 3*logChunk+7; n += 37 {
		var l Log[int]
		var ref []int
		for i := 0; i < n; i++ {
			l.Append(i)
			ref = append(ref, i)
		}
		flat := l.flat
		l.Clip()
		checkLog(t, &l, ref)
		if k := len(l.chunks); k > 0 {
			if last := l.chunks[k-1]; cap(last) != len(last) {
				t.Fatalf("n=%d: last chunk keeps %d spare slots after Clip", n, cap(last)-len(last))
			}
		} else if cap(l.flat) != cap(flat) {
			t.Fatalf("n=%d: Clip moved an unchunked log", n)
		}
		for i := 0; i < logChunk+3; i++ {
			l.Append(-i)
			ref = append(ref, -i)
		}
		checkLog(t, &l, ref)
	}
}

// TestLogOfIsAView: a LogOf view reads its slice's elements in place,
// writes through At reach the slice, and an append to the view never
// writes into the slice's spare capacity.
func TestLogOfIsAView(t *testing.T) {
	backing := make([]int, 5, 10)
	for i := range backing {
		backing[i] = i
	}
	v := LogOf(backing)
	checkLog(t, &v, backing)
	*v.At(2) = 42
	if backing[2] != 42 {
		t.Fatal("a write through the view's At did not reach the slice")
	}
	v.Append(7)
	if spare := backing[:6]; spare[5] != 0 {
		t.Fatalf("an append to the view wrote %d into the slice's spare capacity", spare[5])
	}
	if v.Len() != 6 || *v.At(5) != 7 {
		t.Fatalf("view after append: Len %d, last %d", v.Len(), *v.At(v.Len() - 1))
	}
}

// TestLogDrainEveryPollZeroAlloc pins shape (b): a log drained after every
// short batch keeps its one backing slice, as s = s[:0] did, and the
// steady state allocates nothing — including after a long run was drained.
func TestLogDrainEveryPollZeroAlloc(t *testing.T) {
	var l Log[Sample]
	for i := 0; i < 3*logChunk; i++ { // a long run first: chunks must not linger
		l.Append(Sample{Bytes: i})
	}
	l.Truncate(0)
	sum := 0
	poll := func() {
		for i := 0; i < 8; i++ {
			l.Append(Sample{Bytes: i})
		}
		for s := range l.All() {
			sum += s.Bytes
		}
		l.Truncate(0)
	}
	poll()
	if avg := testing.AllocsPerRun(200, poll); avg != 0 {
		t.Fatalf("drain-every-poll steady state allocates %.2f times per poll, want 0", avg)
	}
}

// TestLogGrowThenAppendZeroAlloc pins the reservation the trackers'
// zero-alloc tests rely on (Estimates.Grow): reserved appends allocate
// nothing even past one chunk's length.
func TestLogGrowThenAppendZeroAlloc(t *testing.T) {
	var l Log[Sample]
	const runs = 2 * logChunk
	l.Grow(runs + 1)
	if avg := testing.AllocsPerRun(runs, func() { l.Append(Sample{}) }); avg != 0 {
		t.Fatalf("append into reserved capacity allocates %.2f times, want 0", avg)
	}
}

// TestLogNeverRecopies bounds what a long log costs to build: bytes
// allocated stay within a small factor of bytes kept, where a slice grown
// by append allocates about five times what it ends up holding.
func TestLogNeverRecopies(t *testing.T) {
	const n = 200 * logChunk
	perRun := testing.AllocsPerRun(1, func() {
		var l Log[Sample]
		for i := 0; i < n; i++ {
			l.Append(Sample{Bytes: i})
		}
	})
	// One allocation per chunk, the first slice's few doublings, and the
	// chunk list's own growth.
	if max := float64(n/logChunk + 40); perRun > max {
		t.Fatalf("%d appends made %.0f allocations, want at most %.0f (one per chunk)", n, perRun, max)
	}
}

// BenchmarkLogAppend builds a log of n samples and reports what that
// allocated against what is kept: B/op over kept-B/op is the re-copying
// factor (about 5 for append-grown slices at these lengths, about 1 for
// the chunked log). The slice cases are the parent's behaviour. The drain
// rows are the other shape: the log's inlined fast path against a bare
// append, ns/op per poll of four samples.
func BenchmarkLogAppend(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run("log/n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var l Log[Sample]
				for j := 0; j < n; j++ {
					l.Append(Sample{Bytes: j})
				}
			}
			b.ReportMetric(float64(n*24), "kept-B/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/append")
		})
		b.Run("slice/n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var s []Sample
				for j := 0; j < n; j++ {
					s = append(s, Sample{Bytes: j})
				}
				sinkSamples = s
			}
			b.ReportMetric(float64(n*24), "kept-B/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/append")
		})
	}
	// Drain every poll: a few samples appended, read, dropped — what an
	// escalated flow of the scale fleet does to its log each tick. The log
	// stays one slice here, so its row should read what the plain slice's
	// does; both allocate nothing.
	const batch = 4
	b.Run("drain/log", func(b *testing.B) {
		var l Log[Sample]
		l.Grow(batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				l.Append(Sample{Bytes: j})
			}
			for _, v := range l.Slice() {
				sinkBytes += v.Bytes
			}
			l.Truncate(0)
		}
	})
	b.Run("drain/slice", func(b *testing.B) {
		s := make([]Sample, 0, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				s = append(s, Sample{Bytes: j})
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
