package stats

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"
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
// untouched, a chunked log's last chunk is left with no spare capacity (a
// log of one chunk becomes one exact slice), a log that is one slice
// keeps that slice, and appends after a Clip still read back right.
func TestLogClip(t *testing.T) {
	lengths := []int{1, firstChunk - 1, firstChunk, firstChunk + 1}
	for n := 0; n <= 3*logChunk+7; n += 37 {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		var l Log[int]
		var ref []int
		for i := 0; i < n; i++ {
			l.Append(i)
			ref = append(ref, i)
		}
		flat, chunked := l.flat, len(l.chunks) > 0
		l.Clip()
		checkLog(t, &l, ref)
		if k := len(l.chunks); k > 0 {
			if last := l.chunks[k-1]; cap(last) != len(last) {
				t.Fatalf("n=%d: last chunk keeps %d spare slots after Clip", n, cap(last)-len(last))
			}
		} else if chunked && cap(l.flat) != len(l.flat) {
			t.Fatalf("n=%d: a one-chunk log keeps %d spare slots after Clip", n, cap(l.flat)-len(l.flat))
		} else if !chunked && cap(l.flat) != cap(flat) {
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
	// A cut inside the view leaves the slice's elements past the cut
	// where the next append could reach them; it must not.
	s := []int{0, 1, 2, 3, 4}
	cut := LogOf(s)
	cut.Truncate(2)
	cut.Append(99)
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(s, want) {
		t.Fatalf("Truncate(2) then Append(99) on a view left the slice as %v, want %v", s, want)
	}
	checkLog(t, &cut, []int{0, 1, 99})
}

// The operations FuzzLog draws, one opcode byte and one argument byte each.
const (
	opAppend     = iota // arg elements
	opAppendLong        // 4·arg elements
	opTruncate          // to arg/256 of the length, rounded down
	opDrain             // Truncate(0)
	opSlice
	opClip
	opGrow  // 4·arg further elements
	opView  // restart as LogOf a copy of the reference
	opWrite // a new value through At(arg % Len)
	numOps
)

// maxFuzzLen caps FuzzLog's logs: every check reads the whole log.
const maxFuzzLen = 8 * logChunk

// FuzzLog drives a Log and the plain slice it stands in for through every
// operation the log offers and compares Len, At and All after each. A
// LogOf view starts from a copy of the reference, and every element of
// that copy must then change only by a write through the view's At.
// Appends come in runs of up to 4×255, so a few operations cross every
// chunk boundary.
func FuzzLog(f *testing.F) {
	f.Add([]byte{opAppend, firstChunk, opAppend, 1})                                       // 16, 17
	f.Add([]byte{opAppendLong, 124, opAppend, 1, opAppendLong, 4, opAppend, 1})            // 496, 497, 513, 514
	f.Add([]byte{opAppendLong, 128, opDrain, 0, opAppend, 100, opDrain, 0, opAppend, 255}) // drains
	f.Add([]byte{opAppend, 5, opView, 0, opTruncate, 100, opAppend, 1, opWrite, 0})        // view, cut, append
	f.Add([]byte{opAppendLong, 130, opSlice, 0, opAppend, 20, opClip, 0, opAppend, 3, opWrite, 77})
	f.Add([]byte{opGrow, 255, opAppendLong, 200, opTruncate, 64, opAppendLong, 255, opClip, 0, opDrain, 0, opAppend, 9})
	f.Fuzz(fuzzLog)
}

func fuzzLog(t *testing.T, data []byte) {
	if len(data) > 512 {
		t.Skip() // each operation's check reads the whole log
	}
	var l Log[int]
	var ref, backing, guard []int
	next := 0
	for ; len(data) >= 2; data = data[2:] {
		switch op, arg := int(data[0])%numOps, int(data[1]); op {
		case opAppend, opAppendLong:
			if op == opAppendLong {
				arg *= 4
			}
			for range min(arg, maxFuzzLen-len(ref)) {
				l.Append(next)
				ref = append(ref, next)
				next++
			}
		case opTruncate:
			n := arg * len(ref) / 256
			l.Truncate(n)
			ref = ref[:n]
		case opDrain:
			l.Truncate(0)
			ref = ref[:0]
		case opSlice:
			if got := l.Slice(); !slices.Equal(got, ref) {
				t.Fatalf("Slice = %v, reference %v", got, ref)
			}
		case opClip:
			l.Clip()
		case opGrow:
			l.Grow(4 * arg)
		case opView:
			backing, guard = slices.Clone(ref), slices.Clone(ref)
			l = LogOf(backing)
		case opWrite:
			if len(ref) == 0 {
				break
			}
			i := arg % len(ref)
			p := l.At(i)
			*p, ref[i] = next, next
			if i < len(backing) && p == &backing[i] {
				guard[i] = next
			}
			next++
		}
		if l.Len() != len(ref) {
			t.Fatalf("Len %d, reference %d", l.Len(), len(ref))
		}
		for i, want := range ref {
			if got := *l.At(i); got != want {
				t.Fatalf("At(%d) = %d, reference %d", i, got, want)
			}
		}
		if got := slices.Collect(l.All()); !slices.Equal(got, ref) {
			t.Fatalf("All = %v, reference %v", got, ref)
		}
		if !slices.Equal(backing, guard) {
			t.Fatalf("the view's slice became %v; only writes through At may change it (%v)", backing, guard)
		}
	}
}

// TestLogDrainEveryPollZeroAlloc pins shape (b): a log drained after every
// batch of up to logChunk elements keeps the chunk that batch needs, as
// s = s[:0] kept its slice, and the steady state allocates nothing — from
// a fresh log, and after a long run was drained. The drain is the one
// the fleets run, Estimates.DrainLog's All then Truncate(0).
func TestLogDrainEveryPollZeroAlloc(t *testing.T) {
	for _, batch := range []int{1, 8, 17, 100, logChunk} {
		for _, long := range []bool{false, true} {
			var l Log[Sample]
			if long {
				for i := 0; i < 3*logChunk; i++ {
					l.Append(Sample{Bytes: i})
				}
				l.Truncate(0)
			}
			sum := 0
			poll := func() {
				for i := 0; i < batch; i++ {
					l.Append(Sample{Bytes: i})
				}
				for s := range l.All() {
					sum += s.Bytes
				}
				l.Truncate(0)
			}
			poll() // AllocsPerRun's own warm-up poll is the second
			if avg := testing.AllocsPerRun(200, poll); avg != 0 {
				t.Fatalf("batch %d (long run first: %v): drain-every-poll steady state allocates %.2f times per poll, want 0", batch, long, avg)
			}
		}
	}
}

// TestLogAllocatesWhatItHolds pins what n appends to a fresh log cost in
// bytes: the n elements, the spare tail of the last chunk, and the chunk
// headers — a log grown by doubling its one slice pays again for every
// element each time it moves. It also holds the other half of "never
// copies": every element stays at the address it was written to.
func TestLogAllocatesWhatItHolds(t *testing.T) {
	const size = int(unsafe.Sizeof(Sample{}))
	for _, n := range []int{1, 16, 17, 300, 496, 497, 600, 5000} {
		var l Log[Sample]
		var at []*Sample
		allocated := ^uint64(0)
		for try := 0; try < 3; try++ { // the least of three, should anything else allocate meanwhile
			l = Log[Sample]{}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				l.Append(Sample{Bytes: i})
			}
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		spare := 0
		if k := len(l.chunks); k > 0 {
			spare = cap(l.chunks[k-1]) - len(l.chunks[k-1])
		}
		// The header slice grows by doubling: every array it had, together,
		// is under twice its last.
		headers := 2 * cap(l.chunks) * int(unsafe.Sizeof([]Sample{}))
		if want := (n+spare)*size + headers; allocated > uint64(want) {
			t.Errorf("n=%d: %d appends allocated %d B, want at most %d (%d elements, %d spare, %d B of chunk headers)",
				n, n, allocated, want, n, spare, headers)
		}
		at = at[:0]
		var l2 Log[Sample]
		for i := 0; i < n; i++ {
			l2.Append(Sample{Bytes: i})
			at = append(at, l2.At(i))
		}
		for i, p := range at {
			if l2.At(i) != p || p.Bytes != i {
				t.Fatalf("n=%d: element %d moved after it was appended", n, i)
			}
		}
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
	// One allocation per chunk, the doubling run's five included, and the
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
	// stays one chunk here, so its row should read what the plain slice's
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
