package stream

import (
	"math"
	"math/rand"
	"testing"

	"element/internal/stats"
	"element/internal/units"
)

// withinRel reports |got-want| <= tol*want (absolute fallback near zero).
func withinRel(got, want, tol float64) bool {
	if want == 0 {
		return math.Abs(got) <= tol
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// TestSketchCrossCheck pins the sketch against an oracle that shares no
// code with it: on identical inputs its quantiles agree with the exact
// stats.CDF.Percentile within the stated RelativeError bound.
// (telemetry.Histogram is this sketch, so there is nothing further to
// cross-check there.)
func TestSketchCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sk Sketch
	vals := make([]units.Duration, 0, 5000)
	exactMin, exactMax := math.Inf(1), math.Inf(-1)
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~1 µs .. 10 s: the sketch's working range.
		v := math.Exp(rng.Float64()*math.Log(1e7)) * 1e-6
		sk.Observe(v)
		vals = append(vals, units.DurationFromSeconds(v))
		exactMin, exactMax = math.Min(exactMin, v), math.Max(exactMax, v)
	}
	cdf := stats.NewCDF(vals)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0} {
		skq := sk.Quantile(q)
		exact := cdf.Percentile(q * 100).Seconds()
		if !withinRel(skq, exact, RelativeError) {
			t.Errorf("q=%g: sketch %g vs exact %g exceeds relative error %g", q, skq, exact, RelativeError)
		}
	}
	if sk.Count() != 5000 {
		t.Fatalf("count = %d", sk.Count())
	}
	if sk.Min() != exactMin || sk.Max() != exactMax {
		t.Errorf("min/max %g/%g vs exact %g/%g", sk.Min(), sk.Max(), exactMin, exactMax)
	}
}

// TestSketchEdgeCases covers zeros, negatives, NaN, out-of-range clamps
// and the empty sketch.
func TestSketchEdgeCases(t *testing.T) {
	var s Sketch
	if s.Quantile(0.5) != 0 || s.Count() != 0 {
		t.Fatal("empty sketch should report zeros")
	}
	s.Observe(math.NaN())
	if s.Count() != 0 {
		t.Fatal("NaN must be ignored")
	}
	s.Observe(-1) // clamps to zero
	s.Observe(0)
	if s.Count() != 2 || s.Quantile(1.0) != 0 {
		t.Fatalf("zeros mishandled: count=%d q1=%g", s.Count(), s.Quantile(1.0))
	}
	s.Observe(1e-12) // below range: first bucket, clamped to observed min on read
	s.Observe(1e9)   // above range: last bucket, clamped to observed max
	if got := s.Quantile(1.0); got != 1e9 {
		t.Errorf("max clamp: got %g", got)
	}
	s.Observe(math.Inf(1)) // above everything: still the last bucket
	if got := s.Quantile(1.0); !math.IsInf(got, 1) || s.Count() != 5 {
		t.Errorf("+Inf: count=%d q1=%g", s.Count(), got)
	}
	var nilS *Sketch
	nilS.Observe(1)
	nilS.Merge(&s)
	if nilS.Count() != 0 || nilS.Quantile(0.5) != 0 {
		t.Fatal("nil sketch must no-op")
	}
}

// sketchIndexRef is the bucket layout as arithmetic: the definition that
// sketchIndex's reads of the float's bits stand in for.
func sketchIndexRef(v float64) int {
	if math.IsInf(v, 1) {
		return sketchBuckets - 1 // Frexp hands Inf back; the range clamps it
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	octave := exp - 1 - sketchMinExp
	if octave < 0 {
		return 0
	}
	if octave >= sketchOctaves {
		return sketchBuckets - 1
	}
	return octave*sketchSubBuckets + int((frac-0.5)*2*sketchSubBuckets)
}

// TestSketchIndexMatchesFrexp walks every bucket edge and its two
// neighbouring floats, then the ends of the float range.
func TestSketchIndexMatchesFrexp(t *testing.T) {
	vals := []float64{
		math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), // largest subnormal
		math.Float64frombits(1 << 52),   // smallest normal
		math.Ldexp(1, sketchMinExp), math.Ldexp(1, sketchMaxExp),
		math.MaxFloat64, math.Inf(1),
	}
	for i := 0; i < sketchBuckets; i++ {
		edge := sketchUpper(i)
		vals = append(vals, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)))
	}
	for _, v := range vals {
		if got, want := sketchIndex(v), sketchIndexRef(v); got != want {
			t.Errorf("sketchIndex(%g = %#x) = %d, want %d", v, math.Float64bits(v), got, want)
		}
	}
	// An edge opens its bucket: the layout the reference encodes.
	if lo, hi := sketchIndex(math.Nextafter(sketchUpper(17), 0)), sketchIndex(sketchUpper(17)); lo != 17 || hi != 18 {
		t.Errorf("buckets either side of edge 17: %d and %d", lo, hi)
	}
}

// FuzzSketchIndex is the same comparison over any positive float.
func FuzzSketchIndex(f *testing.F) {
	for _, v := range []float64{1e-12, 0.002, 1, 1e9, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if !(v > 0) {
			return // Observe never indexes zero, negatives or NaN
		}
		if got, want := sketchIndex(v), sketchIndexRef(v); got != want {
			t.Fatalf("sketchIndex(%g = %#x) = %d, want %d", v, bits, got, want)
		}
	})
}

// TestSketchMergeOrderInvariance pins the satellite contract: folding
// per-shard sketches in any order yields bit-identical state.
func TestSketchMergeOrderInvariance(t *testing.T) {
	parts := make([]Sketch, 5)
	rng := rand.New(rand.NewSource(11))
	for i := range parts {
		for j := 0; j < 200+i*37; j++ {
			parts[i].Observe(math.Exp(rng.Float64()*math.Log(1e6)) * 1e-6)
		}
	}
	var fwd, rev, pair Sketch
	for i := range parts {
		fwd.Merge(&parts[i])
	}
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(&parts[i])
	}
	// Associativity: merge pairs first, then fold.
	var a, b Sketch
	a.Merge(&parts[0])
	a.Merge(&parts[1])
	b.Merge(&parts[2])
	b.Merge(&parts[3])
	pair.Merge(&a)
	pair.Merge(&b)
	pair.Merge(&parts[4])
	if fwd != rev || fwd != pair {
		t.Fatal("sketch merge is not order-invariant")
	}
	// Merge must equal observing the union directly.
	var direct Sketch
	rng = rand.New(rand.NewSource(11))
	for i := range parts {
		for j := 0; j < 200+i*37; j++ {
			direct.Observe(math.Exp(rng.Float64()*math.Log(1e6)) * 1e-6)
		}
	}
	if fwd != direct {
		t.Fatal("merged sketch differs from directly observed union")
	}
}

// TestStreamPathZeroAllocs pins the zero-alloc satellite: Observe,
// Merge, window observation and window rotation all allocate nothing in
// steady state.
func TestStreamPathZeroAllocs(t *testing.T) {
	var a, b Sketch
	b.Observe(0.25)
	if n := testing.AllocsPerRun(1000, func() { a.Observe(0.125) }); n != 0 {
		t.Errorf("Sketch.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { a.Merge(&b) }); n != 0 {
		t.Errorf("Sketch.Merge allocates %v/op", n)
	}

	st := New(Config{Width: 100 * units.Millisecond, Retain: 4})
	se := st.Series("delay")
	se.Observe(0, 0.001) // builds the rings (the one cold allocation site)
	at := units.Time(0)
	if n := testing.AllocsPerRun(1000, func() {
		at = at.Add(10 * units.Millisecond)
		se.Observe(at, 0.002)
		st.AdvanceTo(at)
		for w := st.NextSealed(); w != nil; w = st.NextSealed() {
			st.ReleaseSealed()
		}
	}); n != 0 {
		t.Errorf("stream observe/rotate allocates %v/op", n)
	}

	esc := NewEscalator(Rules{P99Above: units.Second}, 100*units.Millisecond)
	at = 0
	if n := testing.AllocsPerRun(1000, func() {
		at = at.Add(10 * units.Millisecond)
		esc.Observe(at, 0.002)
	}); n != 0 {
		t.Errorf("Escalator.Observe allocates %v/op", n)
	}
}

// Both benchmarks batch enough work per iteration (~1 ms) that a single
// -benchtime 1x iteration — what benchsmoke snapshots and bench-gate
// replays — measures real work, not timer noise. Per-call cost is
// reported via ReportMetric; ns/op is the gated batch figure.

func BenchmarkSketchObserve(b *testing.B) {
	const batch = 1 << 16
	var s Sketch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			s.Observe(float64(j%1000) * 1e-4)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/observe")
}

func BenchmarkSketchMerge(b *testing.B) {
	// 128 populated source sketches — one fleet barrier's worth of
	// shard merges — folded in 8 rounds per iteration.
	const (
		sketches = 128
		rounds   = 8
		batch    = sketches * rounds
	)
	var srcs [sketches]Sketch
	for i := range srcs {
		for j := 0; j < 1000; j++ {
			srcs[i].Observe(float64(i+j) * 1e-4)
		}
	}
	var dst Sketch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			for j := range srcs {
				dst.Merge(&srcs[j])
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/merge")
}
