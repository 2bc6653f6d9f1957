package stats

import (
	"iter"
	"slices"
)

// logChunk is the length of every chunk a Log allocates once it has
// outgrown its first slice. The unused tail of the last chunk — half a
// chunk on average — is what a chunked log holds beyond its data, and a
// fleet keeps thousands of logs a few chunks long: at 512 that tail is
// what a ×1.25-grown slice of 2 000 elements leaves idle, at 1024 the
// churn fleet retained 6 % more than with plain slices. Shorter chunks
// only add allocations (one per chunk) where logs are long.
const logChunk = 512

// Log is an append-only result log that never copies what it already
// holds. It serves the two ways the simulator's observers use one:
//
//   - run, then read (a scenario's ground truth and estimates, a fleet
//     monitor's stitched series): the log is a plain slice while shorter
//     than logChunk, then a list of fixed-size chunks, so an append costs
//     the same at any length and nothing is re-copied as the log grows.
//     A reader that walks it by Len and At reads it where it lies — the
//     fleet grades and hands over its series that way, after Clip — and
//     only a caller that needs one slice pays for Slice's consolidation.
//   - drain every poll (the trackers the fleets' monitors drive): the log
//     never gets long, so it stays one slice, and Truncate(0) keeps that
//     slice's capacity exactly as s = s[:0] does — the steady state
//     allocates nothing.
//
// The zero value is an empty log. A Log belongs to one goroutine: Slice
// writes on read.
type Log[T any] struct {
	// flat holds the log's first elements: everything while the log is
	// short, and everything up to the last Slice call after one.
	flat []T
	// chunks follow flat in order; each has capacity logChunk and all but
	// the last are full.
	chunks [][]T
}

// Append adds v at the end.
func (l *Log[T]) Append(v T) {
	// The short log with room to spare — every append of a drained log,
	// most of a growing one — stays small enough to inline.
	if n := len(l.flat); len(l.chunks) == 0 && n < cap(l.flat) {
		l.flat = l.flat[:n+1]
		l.flat[n] = v
		return
	}
	l.appendSlow(v)
}

// appendSlow is every other append. Not inlined, or Append itself would
// exceed the inlining budget.
//
//go:noinline
func (l *Log[T]) appendSlow(v T) {
	if k := len(l.chunks); k == 0 {
		// Below one chunk the slice grows the ordinary way: a few
		// doublings, under 2×logChunk elements copied over the log's life.
		if len(l.flat) < logChunk {
			l.flat = append(l.flat, v)
			return
		}
	} else if last := &l.chunks[k-1]; len(*last) < logChunk {
		*last = append(*last, v)
		return
	}
	c := make([]T, 1, logChunk)
	c[0] = v
	l.chunks = append(l.chunks, c)
}

// Len reports the number of elements held.
func (l *Log[T]) Len() int {
	n := len(l.flat)
	if k := len(l.chunks); k > 0 {
		n += (k-1)*logChunk + len(l.chunks[k-1])
	}
	return n
}

// At returns a pointer to element i, valid until the next Slice or
// Truncate. It does not consolidate.
func (l *Log[T]) At(i int) *T {
	if i < len(l.flat) {
		return &l.flat[i]
	}
	i -= len(l.flat)
	return &l.chunks[i/logChunk][i%logChunk]
}

// All iterates the elements in order without consolidating.
func (l *Log[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		for _, v := range l.flat {
			if !yield(v) {
				return
			}
		}
		for _, c := range l.chunks {
			for _, v := range c {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// Slice returns the whole log as one slice; later appends never modify
// what it holds. When chunks exist they are first folded into one slice
// of exactly Len() elements, so Slice writes on read: the log's single
// owner goroutine may call it, nobody else. Repeated calls with nothing
// appended in between cost nothing.
func (l *Log[T]) Slice() []T {
	if len(l.chunks) > 0 {
		flat := append(make([]T, 0, l.Len()), l.flat...)
		for _, c := range l.chunks {
			flat = append(flat, c...)
		}
		l.flat, l.chunks = flat, nil
	}
	return l.flat
}

// Truncate drops every element from index n on. The first slice's
// capacity is kept (Truncate(0) is the drain loops' s = s[:0]); chunks
// past n are released.
func (l *Log[T]) Truncate(n int) {
	if n <= len(l.flat) {
		l.flat = l.flat[:n]
		l.chunks = nil
		return
	}
	n -= len(l.flat)
	k := (n + logChunk - 1) / logChunk // chunks still needed; n > 0 so k ≥ 1
	clear(l.chunks[k:])
	l.chunks = l.chunks[:k]
	l.chunks[k-1] = l.chunks[k-1][:n-(k-1)*logChunk]
}

// Clip releases the unused tail of a chunked log's last chunk by copying
// that one partial chunk to an exact fit; nothing else moves. A log that
// is still one slice is left as it is, as Slice leaves it. Clip is for a
// log that is done growing: a later append regrows that chunk.
func (l *Log[T]) Clip() {
	if k := len(l.chunks); k > 0 {
		if last := &l.chunks[k-1]; len(*last) < cap(*last) {
			*last = append(make([]T, 0, len(*last)), *last...)
		}
	}
}

// LogOf is a read view of s as a Log, sharing its elements: nothing is
// copied, and an append to the view never writes into s.
func LogOf[T any](s []T) Log[T] {
	return Log[T]{flat: s[:len(s):len(s)]}
}

// Grow reserves room for n further elements in the first slice, so a
// caller that knows its horizon appends without allocating. It has no
// effect once the log is chunked, where appends never copy anyway.
func (l *Log[T]) Grow(n int) {
	if len(l.chunks) == 0 {
		l.flat = slices.Grow(l.flat, n)
	}
}
