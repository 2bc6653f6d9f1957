package stats

import (
	"encoding/binary"
	"iter"
	"sync"

	"element/internal/units"
)

// LogBlock is the number of entries in one block of a Log. A block's
// first entry is encoded against the zero value, so a block decodes on
// its own, and the log's index keeps its position and time: reading
// entry i costs at most one partial block's decode.
const LogBlock = 32

// A Log's first chunk holds firstLogChunk bytes, and each later one
// twice the one before it, up to maxLogChunk.
const (
	firstLogChunk = 256
	maxLogChunk   = 16 << 10
)

// headBytes is what one block's index entry takes at the back of its
// chunk: its first time (eight bytes) and its offset in the chunk (two).
const headBytes = 10

// Entry is an element type a Log can hold, with its codec. AppendDeltas,
// called on the entry before next[0] (the zero value for a block's
// first), appends to dst each entry of next as its field-by-field
// difference from the one before, each difference taken with wrapping
// arithmetic and written as a zigzag varint (AppendVarint). Next, called
// on an entry, reads the one after it back (Varint), exactly, whatever
// its fields hold. Time is the entry's time stamp; the log's index keeps
// each block's first.
type Entry[T any] interface {
	Time() units.Time
	AppendDeltas(dst []byte, next []T) []byte
	Next(src []byte) (T, int)
}

// AppendVarint appends x as a zigzag varint, as binary.AppendVarint does,
// with a fast path for a difference that fits one byte, as most do.
func AppendVarint(dst []byte, x int64) []byte {
	if u := uint64(x<<1) ^ uint64(x>>63); u < 0x80 {
		return append(dst, byte(u))
	}
	return binary.AppendVarint(dst, x)
}

// Varint reads the zigzag varint at src[i:], as AppendVarint wrote it,
// and returns it and the index past it.
func Varint(src []byte, i int) (int64, int) {
	if b := src[i]; b < 0x80 { // most differences fit one byte
		return int64(b>>1) ^ -int64(b&1), i + 1
	}
	var u uint64
	for s := 0; ; s += 7 {
		b := src[i]
		i++
		u |= uint64(b&0x7f) << s
		if b < 0x80 {
			return int64(u>>1) ^ -int64(u&1), i
		}
	}
}

// Log is an append-only result log kept as delta varints: each entry is
// its codec's difference from the one before, in blocks of LogBlock
// entries. A block is encoded when the next one begins; until then the
// last block's entries are held as they are (tail), so a log drained
// after every poll of fewer than LogBlock entries never encodes at all.
// The bytes lie in chunks that are never moved or grown (a block never
// straddles two). Each chunk also holds, packed from its back, the index
// of the blocks that begin in it — a block's first time and where its
// bytes start — so the index costs no allocation of its own and no spare
// capacity: a search by time decodes nothing (BlockTime), and a read
// decodes one block at most. It serves the two ways the simulator's
// observers use one:
//
//   - run, then read (a scenario's ground truth and estimates, a fleet
//     monitor's stitched series): All walks the log decoding as it goes,
//     the graders read it by block (core.CheckSenderLog), and Collect
//     decodes it into a fresh slice for a caller that needs one.
//   - drain every poll (the trackers the fleets' monitors drive): Reset
//     keeps the tail's array and the largest chunk, so the steady state
//     allocates nothing.
//
// Halve decimates a log in place (the waterfall's retained ranges, the
// request tracer's records). The zero value is an empty log. Nothing
// reads a Log while it is written: it belongs to one goroutine.
type Log[T Entry[T]] struct {
	chunks []chunk
	// tail is the last block, not yet encoded, in an array of LogBlock:
	// it holds 1 … LogBlock entries whenever Len() > 0.
	tail []T
	n    int
}

// sealBufs are the buffers seal encodes a block into before placing it,
// shared by every Log, so no log keeps one of its own. It is a free list
// rather than a sync.Pool, which the race detector's build makes drop a
// quarter of what is put back: a drained log allocates nothing there
// either. It holds at most one buffer per goroutine that sealed at once.
var sealBufs struct {
	sync.Mutex
	free [][]byte
}

// sealBufBytes is a seal buffer's first size: more than a block of any
// codec takes in a live run (a block of ranges, the longest, about 650 B).
const sealBufBytes = 4 << 10

// chunk is one run of a log's bytes: entries from the front, and from the
// back of its capacity the index entries of blocks first … first+heads-1,
// the blocks that begin in it.
type chunk struct {
	b            []byte
	first, heads int
}

// room is how many bytes the chunk can still take.
func (c *chunk) room() int { return cap(c.b) - len(c.b) - headBytes*c.heads }

// head returns block first+h's index entry.
func (c *chunk) head(h int) (at units.Time, off int) {
	e := c.b[cap(c.b)-headBytes*(h+1) : cap(c.b)-headBytes*h]
	return units.Time(binary.LittleEndian.Uint64(e)), int(binary.LittleEndian.Uint16(e[8:]))
}

// Len reports the number of entries held.
func (l *Log[T]) Len() int { return l.n }

// sealed is the number of entries encoded: whole blocks.
func (l *Log[T]) sealed() int { return l.n - len(l.tail) }

// Append adds v at the end.
func (l *Log[T]) Append(v T) {
	switch len(l.tail) {
	case 0:
		if l.tail == nil {
			l.tail = make([]T, 0, LogBlock)
		}
	case LogBlock:
		l.seal(l.tail)
		l.tail = l.tail[:0]
	}
	l.tail = append(l.tail, v)
	l.n++
}

// seal encodes block, a whole one, after the sealed blocks: into a shared
// buffer first, then into the last chunk if it fits there, else into a
// new one. A block never straddles two chunks. sealed() counts the blocks
// before it: Append counts the block both in Len and in the tail.
func (l *Log[T]) seal(block []T) {
	var buf []byte
	sealBufs.Lock()
	if k := len(sealBufs.free) - 1; k >= 0 {
		buf = sealBufs.free[k]
		sealBufs.free = sealBufs.free[:k]
	}
	sealBufs.Unlock()
	if buf == nil {
		buf = make([]byte, 0, sealBufBytes)
	}
	var zero T
	buf = zero.AppendDeltas(buf, block)
	need := len(buf) + headBytes
	k := len(l.chunks) - 1
	if k < 0 || l.chunks[k].room() < need {
		l.addChunk(l.sealed()/LogBlock, need)
		k++
	}
	c := &l.chunks[k]
	at := len(c.b)
	c.b = append(c.b, buf...)
	c.heads++
	e := c.b[cap(c.b)-headBytes*c.heads : cap(c.b)]
	binary.LittleEndian.PutUint64(e, uint64(block[0].Time()))
	binary.LittleEndian.PutUint16(e[8:], uint16(at))
	sealBufs.Lock()
	sealBufs.free = append(sealBufs.free, buf[:0])
	sealBufs.Unlock()
}

// addChunk starts the next chunk, twice the last one up to maxLogChunk,
// and doubled again while it is shorter than need (a power of two, which
// the allocator rounds nothing onto); its first block will be block first.
func (l *Log[T]) addChunk(first, need int) {
	c := firstLogChunk
	if k := len(l.chunks); k > 0 {
		c = min(2*cap(l.chunks[k-1].b), maxLogChunk)
	}
	for c < need {
		c *= 2
	}
	l.chunks = append(l.chunks, chunk{b: make([]byte, 0, c), first: first})
}

// chunkOf returns the chunk block b begins in; b is sealed.
func (l *Log[T]) chunkOf(b int) int {
	lo, hi := 0, len(l.chunks)-1
	for lo < hi {
		mid := int(uint(lo+hi) / 2)
		if c := &l.chunks[mid]; c.first+c.heads > b {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// cursor decodes a log's sealed entries in order from a block's first.
type cursor[T Entry[T]] struct {
	chunks []chunk
	k, off int
	v      T
}

// cursor is positioned before sealed block b's first entry.
func (l *Log[T]) cursor(b int) cursor[T] {
	k := l.chunkOf(b)
	c := &l.chunks[k]
	_, off := c.head(b - c.first)
	return cursor[T]{chunks: l.chunks, k: k, off: off}
}

// next decodes the entry after c.v. A block's first is decoded from the
// zero value: the caller resets c.v there.
func (c *cursor[T]) next() T {
	if c.off == len(c.chunks[c.k].b) {
		c.k, c.off = c.k+1, 0
	}
	var m int
	c.v, m = c.v.Next(c.chunks[c.k].b[c.off:])
	c.off += m
	return c.v
}

// At returns entry i: from the tail as it is, or decoded from its block
// up to it.
func (l *Log[T]) At(i int) T {
	if uint(i) >= uint(l.n) {
		panic("stats: Log index out of range")
	}
	if s := l.sealed(); i >= s {
		return l.tail[i-s]
	}
	c := l.cursor(i / LogBlock)
	for j := i % LogBlock; j > 0; j-- {
		c.next()
	}
	return c.next()
}

// All iterates the entries in order, decoding the sealed ones as it goes.
func (l *Log[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		if s := l.sealed(); s > 0 {
			var zero T
			c := l.cursor(0)
			for i := 0; i < s; i++ {
				if i%LogBlock == 0 {
					c.v = zero
				}
				if !yield(c.next()) {
					return
				}
			}
		}
		for _, v := range l.tail {
			if !yield(v) {
				return
			}
		}
	}
}

// Collect decodes the whole log into a fresh slice of exactly Len()
// entries (nil when empty); later appends never touch it.
func (l *Log[T]) Collect() []T {
	if l.n == 0 {
		return nil
	}
	s := make([]T, 0, l.n)
	for v := range l.All() {
		s = append(s, v)
	}
	return s
}

// BlockTime is the time of block b's first entry, entry b·LogBlock: read
// from the index or the tail, nothing decoded.
func (l *Log[T]) BlockTime(b int) units.Time {
	if b*LogBlock >= l.sealed() {
		return l.tail[0].Time()
	}
	c := &l.chunks[l.chunkOf(b)]
	at, _ := c.head(b - c.first)
	return at
}

// AppendBlock appends block b's entries — b·LogBlock up to the next block
// or the end — to dst, decoding them unless b is the tail.
func (l *Log[T]) AppendBlock(dst []T, b int) []T {
	if b*LogBlock >= l.sealed() {
		return append(dst, l.tail...)
	}
	c := l.cursor(b)
	for range LogBlock {
		dst = append(dst, c.next())
	}
	return dst
}

// Reset empties the log. It keeps the tail's array and the largest
// chunk, emptied, so a log drained after every batch allocates nothing
// once one batch has fit.
func (l *Log[T]) Reset() {
	l.tail = l.tail[:0]
	if k := len(l.chunks) - 1; k >= 0 {
		l.chunks[0] = chunk{b: l.chunks[k].b[:0]}
		clear(l.chunks[1:])
		l.chunks = l.chunks[:1]
	}
	l.n = 0
}

// Halve keeps every other entry, the first included. Each kept block is
// decoded from two, and the kept blocks are encoded into chunks of
// maxLogChunk from the first: the log halved is one that grew long.
func (l *Log[T]) Halve() {
	if l.n == 0 {
		return
	}
	var kept Log[T]
	blocks := l.sealed()/LogBlock + 1 // the tail is the last
	buf := make([]T, 0, 2*LogBlock)
	for b := 0; b < blocks; b += 2 {
		buf = l.AppendBlock(buf[:0], b)
		if b+1 < blocks {
			buf = l.AppendBlock(buf, b+1)
		}
		k := 0
		for i := 0; i < len(buf); i += 2 {
			buf[k] = buf[i]
			k++
		}
		if b+2 >= blocks {
			kept.tail = append(l.tail[:0], buf[:k]...)
		} else {
			if kept.chunks == nil {
				kept.addChunk(0, maxLogChunk)
			}
			kept.seal(buf[:k])
		}
		kept.n += k
	}
	*l = kept
}

// Time, AppendDeltas and Next are Sample's Log codec: three varints, the
// differences of At, Delay and Bytes.
func (s Sample) Time() units.Time { return s.At }

// AppendDeltas appends next's differences, each from the one before,
// starting from s.
func (s Sample) AppendDeltas(dst []byte, next []Sample) []byte {
	for _, v := range next {
		dst = AppendVarint(dst, int64(v.At-s.At))
		dst = AppendVarint(dst, int64(v.Delay-s.Delay))
		dst = AppendVarint(dst, int64(v.Bytes-s.Bytes))
		s = v
	}
	return dst
}

// Next decodes the sample after s from src.
func (s Sample) Next(src []byte) (Sample, int) {
	dAt, i := Varint(src, 0)
	dDelay, i := Varint(src, i)
	dBytes, i := Varint(src, i)
	return Sample{At: s.At + units.Time(dAt), Delay: s.Delay + units.Duration(dDelay), Bytes: s.Bytes + int(dBytes)}, i
}
