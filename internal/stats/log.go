package stats

import (
	"iter"
	"math/bits"
)

// firstChunk is the capacity of a fresh log's first chunk. Each later
// chunk doubles the one before it, up to logChunk, so a log built by n
// appends holds fewer than n+firstChunk spare slots, however short.
const firstChunk = 16

// logChunk caps a chunk's length. The unused tail of the last chunk —
// half a chunk on average once a log reaches the cap — is what a long
// log holds beyond its data, and a fleet keeps thousands of logs a few
// chunks long: at 512 that tail is what a ×1.25-grown slice of 2 000
// elements leaves idle, at 1024 the churn fleet retained 6 % more than
// with plain slices. Shorter chunks only add allocations (one per chunk)
// where logs are long.
const logChunk = 512

// Log is an append-only result log that never copies what it holds. An
// append fills the last chunk; a full one is followed by a new chunk
// twice its size (firstChunk, 32, … logChunk, then logChunk each), so an
// element never moves once written, an append costs the same at any
// length, and a short log is sized by what it holds. It serves the two
// ways the simulator's observers use one:
//
//   - run, then read (a scenario's ground truth and estimates, a fleet
//     monitor's stitched series): a reader that walks the log by Len and
//     At reads it where it lies — the fleet grades and hands over its
//     series that way, after Clip — and only a caller that needs one
//     slice pays for Slice's consolidation.
//   - drain every poll (the trackers the fleets' monitors drive):
//     Truncate(0) keeps the largest chunk, emptied, as the first, so a
//     batch of up to logChunk elements fits it from the second poll on —
//     the steady state allocates nothing.
//
// The zero value is an empty log. A Log belongs to one goroutine: Slice
// writes on read.
type Log[T any] struct {
	// flat holds the log's first elements when it is a LogOf view or was
	// folded into one slice by Slice or Clip. No append writes into it.
	flat []T
	// chunks follow flat in order. cap(chunks[0]) is a power of two from
	// firstChunk to logChunk, chunk k's capacity is min(cap(chunks[0])<<k,
	// logChunk) (a last chunk cut down by Clip excepted), and all but the
	// last are full. Slots past len(chunks) hold the empty chunks Grow
	// reserved, if any.
	chunks [][]T
}

// Append adds v at the end.
func (l *Log[T]) Append(v T) {
	// The last chunk with room to spare — every append but one per chunk —
	// stays small enough to inline.
	if k := len(l.chunks); k > 0 {
		if c := &l.chunks[k-1]; len(*c) < cap(*c) {
			n := len(*c)
			*c = (*c)[:n+1]
			(*c)[n] = v
			return
		}
	}
	l.appendSlow(v)
}

// appendSlow starts the next chunk. Not inlined, or Append itself would
// exceed the inlining budget.
//
//go:noinline
func (l *Log[T]) appendSlow(v T) {
	k := len(l.chunks)
	if k > 0 {
		// A last chunk Clip cut down grows back to its full size first:
		// the one copy an append makes, and only on a log Clip declared
		// done.
		if last, want := &l.chunks[k-1], l.chunkCap(k-1); cap(*last) < want {
			*last = append(append(make([]T, 0, want), *last...), v)
			return
		}
	}
	var c []T
	if k < cap(l.chunks) {
		c = l.chunks[:k+1][k] // reserved by Grow, or nil
	}
	if c == nil {
		c = make([]T, 0, l.chunkCap(k))
	}
	l.chunks = append(l.chunks, append(c, v))
}

// chunkCap is the capacity chunk k is made with: chunk 0's (used or
// reserved), or firstChunk for a log without one, doubled per chunk up to
// logChunk.
func (l *Log[T]) chunkCap(k int) int {
	c := firstChunk
	if cap(l.chunks) > 0 && l.chunks[:1][0] != nil {
		c = cap(l.chunks[:1][0])
	}
	for ; k > 0 && c < logChunk; k-- {
		c *= 2
	}
	return c
}

// start is where chunk k begins, counted from the end of flat: with b
// chunk 0's capacity, chunk k of the doubling run starts at b·(2^k−1),
// and the run ends at logChunk−b, where every chunk is logChunk long.
func (l *Log[T]) start(k int) int {
	b := cap(l.chunks[0])
	if full := bits.Len(uint(logChunk/b)) - 1; k > full {
		return logChunk - b + (k-full)*logChunk
	}
	return b<<k - b
}

// locate returns the chunk and offset of element j counted from the end
// of flat: start inverted in closed form.
func (l *Log[T]) locate(j int) (k, off int) {
	b := cap(l.chunks[0])
	if j += b; j < logChunk {
		k = bits.Len(uint(j)) - bits.Len(uint(b))
		return k, j - b<<k
	}
	j -= logChunk
	return bits.Len(uint(logChunk/b)) - 1 + j/logChunk, j % logChunk
}

// Len reports the number of elements held.
func (l *Log[T]) Len() int {
	n := len(l.flat)
	if k := len(l.chunks); k > 0 {
		n += l.start(k-1) + len(l.chunks[k-1])
	}
	return n
}

// At returns a pointer to element i. Appends never move an element, so
// the pointer stays valid until the next Slice, Truncate or Clip. At does
// not consolidate.
func (l *Log[T]) At(i int) *T {
	if i < len(l.flat) {
		return &l.flat[i]
	}
	k, off := l.locate(i - len(l.flat))
	return &l.chunks[k][off]
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

// Slice returns the whole log as one slice. A log that is one slice or
// one chunk returns it as it lies; any other is first folded into one
// slice of exactly Len() elements, so Slice writes on read: the log's
// single owner goroutine may call it, nobody else. Appends never modify
// what the result holds — until the next Truncate, which may hand its
// storage back to later appends. Repeated calls with nothing appended in
// between cost nothing.
func (l *Log[T]) Slice() []T {
	switch {
	case len(l.chunks) == 0:
		return l.flat
	case len(l.flat) == 0 && len(l.chunks) == 1:
		return l.chunks[0]
	}
	l.fold()
	return l.flat
}

// fold copies the log into a flat slice of exactly Len() elements.
func (l *Log[T]) fold() {
	flat := append(make([]T, 0, l.Len()), l.flat...)
	for _, c := range l.chunks {
		flat = append(flat, c...)
	}
	l.flat, l.chunks = flat, nil
}

// Truncate drops every element from index n on; chunks past n are
// released. A cut within flat keeps the largest chunk, emptied, as the
// next first chunk (Truncate(0) is the drain loops' s = s[:0]).
func (l *Log[T]) Truncate(n int) {
	if n > len(l.flat) {
		k, off := l.locate(n - len(l.flat) - 1)
		clear(l.chunks[k+1 : cap(l.chunks)])
		l.chunks = l.chunks[:k+1]
		l.chunks[k] = l.chunks[k][:off+1]
		return
	}
	l.flat = l.flat[:n:n]
	if k := len(l.chunks); k > 0 {
		keep := l.chunks[k-1]
		if cap(keep) < l.chunkCap(k-1) {
			keep = l.chunks[k-2] // the last was cut down by Clip; chunk 0 never is
		}
		clear(l.chunks[1:cap(l.chunks)])
		l.chunks = append(l.chunks[:0], keep[:0])
	}
}

// Clip releases the unused tail of the last chunk by copying that one
// partial chunk to an exact fit; nothing else moves. A log of one chunk
// becomes one exact slice instead, since chunk 0's capacity sets every
// later chunk's, and a log that is one slice is left as it is. Clip is
// for a log that is done growing: a later append regrows that chunk.
func (l *Log[T]) Clip() {
	k := len(l.chunks)
	if k == 0 {
		return
	}
	clear(l.chunks[k:cap(l.chunks)])
	switch last := l.chunks[k-1]; {
	case len(last) == cap(last):
	case k == 1:
		l.fold()
	default:
		l.chunks[k-1] = append(make([]T, 0, len(last)), last...)
	}
}

// LogOf is a read view of s as a Log, sharing its elements: nothing is
// copied, and an append to the view never writes into s.
func LogOf[T any](s []T) Log[T] {
	return Log[T]{flat: s[:len(s):len(s)]}
}

// Grow reserves chunks for n further elements, so a caller that knows its
// horizon appends without allocating. Slice, Truncate and Clip may release
// the reservation.
func (l *Log[T]) Grow(n int) {
	k := len(l.chunks)
	if k > 0 {
		last := l.chunks[k-1]
		n -= cap(last) - len(last)
	}
	for j := k; n > 0; j++ {
		if j == cap(l.chunks) {
			l.chunks = append(l.chunks[:j], nil)[:k]
		}
		c := &l.chunks[:j+1][j]
		if *c == nil {
			*c = make([]T, 0, l.chunkCap(j))
		}
		n -= cap(*c)
	}
}
