// Package stream is the bounded-memory streaming layer on top of the
// per-run telemetry registry: mergeable quantile sketches, fixed-duration
// tumbling windows in virtual time with watermarking, bounded exporters
// (Prometheus text and a remote-write-shaped JSONL batch with a hard byte
// budget), and sketch-driven escalation rules that flip a fleet monitor
// from lightweight sketch-only observation to full tracker + waterfall
// granularity.
//
// Design constraints, in order:
//
//   - Bounded memory: a stream's footprint is O(open windows + retained
//     sealed windows) × O(registered series), independent of how many
//     samples are observed. Sealed windows export and their storage is
//     recycled.
//   - Exact, order-invariant merging: Sketch.Merge is an integer
//     bucket-wise add (min/max widen), so per-shard sketches fold at
//     fleet barriers in any order with bit-identical results — the same
//     contract Registry.Merge gives counters. The sketch deliberately
//     keeps no float accumulator (no sum/mean): float addition is not
//     associative, and a non-associative field would break the fleet's
//     byte-identical shard-count invariance.
//   - Allocation-free hot path: Series.Observe and window rotation
//     perform zero heap allocations once the stream's rings are built
//     (first observation); only registration and export may allocate.
package stream

import "math"

// Log-linear sketch layout: sketchOctaves powers of two, each split into
// sketchSubBuckets linear sub-buckets (a power of two itself, which is
// what lets sketchIndex read them off the mantissa), covering
// 2^sketchMinExp .. 2^sketchMaxExp. The range is tuned for delays in
// seconds — one nanosecond to about seventeen minutes — and values
// outside it clamp into the first/last bucket. telemetry.Histogram is
// built on this sketch, so registry histograms and streamed windows
// share one layout.
const (
	sketchSubBits    = 3
	sketchSubBuckets = 1 << sketchSubBits
	sketchMinExp     = -30
	sketchMaxExp     = 10
	sketchOctaves    = sketchMaxExp - sketchMinExp
	sketchBuckets    = sketchOctaves * sketchSubBuckets
)

// RelativeError is the sketch's guaranteed quantile accuracy for values
// inside its range: Quantile returns the upper edge of the bucket where
// the cumulative count crosses the rank, and a bucket's width is at most
// 1/sketchSubBuckets of its lower edge, so the returned value is within
// RelativeError × (true value) of the exact rank statistic.
const RelativeError = 1.0 / sketchSubBuckets

// Sketch is a fixed-memory mergeable quantile sketch of non-negative
// values (DDSketch-style log-linear buckets). The zero value is an empty,
// ready-to-use sketch. Merging is exact, associative and commutative.
type Sketch struct {
	count   uint64
	zeros   uint64 // observations of exactly zero
	min     float64
	max     float64
	buckets [sketchBuckets]uint64
}

// sketchIndex maps a positive value to its bucket, straight from the
// float's bits: the biased exponent names the octave and the top
// sketchSubBits mantissa bits are the linear sub-bucket — exactly.
// Subnormals (exponent field 0) fall below the range and +Inf (all ones)
// above it, so both clamp with everything else out of range.
func sketchIndex(v float64) int {
	const (
		mantBits = 52
		expBias  = 1023
	)
	bits := math.Float64bits(v)
	octave := int(bits>>mantBits) - expBias - sketchMinExp
	if octave < 0 {
		return 0
	}
	if octave >= sketchOctaves {
		return sketchBuckets - 1
	}
	return octave*sketchSubBuckets + int(bits>>(mantBits-sketchSubBits))&(sketchSubBuckets-1)
}

// sketchUpper is the inclusive upper edge of bucket i.
func sketchUpper(i int) float64 {
	octave := i / sketchSubBuckets
	sub := i % sketchSubBuckets
	lo := math.Ldexp(1, octave+sketchMinExp) // 2^(octave+minExp)
	return lo + lo*float64(sub+1)/sketchSubBuckets
}

// Observe records one value. Negative values clamp to zero; NaN is
// ignored. Allocation-free.
func (s *Sketch) Observe(v float64) {
	if s == nil || math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	if v == 0 {
		s.zeros++
		return
	}
	s.buckets[sketchIndex(v)]++
}

// Count reports the number of observations.
func (s *Sketch) Count() uint64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Min reports the smallest observation (0 if none).
func (s *Sketch) Min() float64 {
	if s == nil {
		return 0
	}
	return s.min
}

// Max reports the largest observation (0 if none).
func (s *Sketch) Max() float64 {
	if s == nil {
		return 0
	}
	return s.max
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1): the upper edge of the
// bucket where the cumulative count crosses ceil(q·count), clamped to the
// observed min/max. For in-range values the result is within
// RelativeError of the exact rank statistic.
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank <= s.zeros {
		return 0
	}
	if rank >= s.count {
		// The top rank is the observed max exactly — this also keeps
		// q=1 honest for values clamped into the last bucket from above
		// the sketch range.
		return s.max
	}
	cum := s.zeros
	for i, n := range s.buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= rank {
			v := sketchUpper(i)
			if v > s.max {
				v = s.max
			}
			if v < s.min {
				v = s.min
			}
			return v
		}
	}
	return s.max
}

// ApproxSum estimates the sum of all observations from the bucket upper
// edges (clamped to the observed min/max), the same per-bucket bound
// Quantile reports, so it overshoots by at most RelativeError × the true
// sum. The walk visits buckets in fixed index order, making the result a
// pure function of the sketch state: fleet-merged windows export
// identical sums for any shard count.
func (s *Sketch) ApproxSum() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	var sum float64
	for i, n := range s.buckets {
		if n == 0 {
			continue
		}
		v := sketchUpper(i)
		if v > s.max {
			v = s.max
		}
		if v < s.min {
			v = s.min
		}
		sum += float64(n) * v
	}
	return sum
}

// Merge folds src into s: buckets, count and zeros add exactly; min/max
// widen. Merge is associative and commutative — folding per-shard
// sketches in any order produces bit-identical state — and it never
// touches src. Nil receivers and sources no-op. Allocation-free.
func (s *Sketch) Merge(src *Sketch) {
	if s == nil || src == nil || src.count == 0 {
		return
	}
	if s.count == 0 || src.min < s.min {
		s.min = src.min
	}
	if src.max > s.max {
		s.max = src.max
	}
	s.count += src.count
	s.zeros += src.zeros
	for i := range s.buckets {
		s.buckets[i] += src.buckets[i]
	}
}

// Reset empties the sketch in place (allocation-free), ready for reuse by
// the window rotation.
func (s *Sketch) Reset() {
	if s == nil {
		return
	}
	s.count, s.zeros, s.min, s.max = 0, 0, 0, 0
	for i := range s.buckets {
		s.buckets[i] = 0
	}
}
