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
// arithmetic and written as a zigzag varint (AppendVarint).
// AppendDecoded, called on the same entry, reads n entries back from the
// start of src (Varint), exactly, whatever their fields hold, appends
// them to dst and returns it and the bytes read: a log decodes a block in
// one call, so a codec's decode loop runs as its own code. Time is the
// entry's time stamp; the log's index keeps each block's first.
type Entry[T any] interface {
	Time() units.Time
	AppendDeltas(dst []byte, next []T) []byte
	AppendDecoded(dst []T, src []byte, n int) ([]T, int)
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
// The bytes lie in chunks that appends never move or grow (a block never
// straddles two). Each chunk also holds, packed from its back, the index
// of the blocks that begin in it — a block's first time and where its
// bytes start — so the index costs no allocation of its own and no spare
// capacity: a search by time decodes nothing (BlockTime), and a read
// decodes one block at most. It serves the two ways the simulator's
// observers use one:
//
//   - run, then read (a scenario's ground truth and estimates, a fleet
//     monitor's stitched series): All walks the log decoding a block at
//     a time, the graders read it by block (core.CheckSenderLog), and
//     Collect decodes it into a fresh slice for a caller that needs one.
//     Trim gives back a finished log's spare room.
//   - drain every poll (the trackers the fleets' monitors drive): Reset
//     keeps the tail's array and the last chunk, so the steady state
//     allocates nothing.
//
// Halve decimates a log in place (DecimatedLog). The zero value is an
// empty log. Nothing reads a Log while it is written: it belongs to one
// goroutine.
type Log[T Entry[T]] struct {
	chunks []chunk
	// tail is the last block, not yet encoded, in an array of LogBlock
	// (of its own length once trimmed): it holds 1 … LogBlock entries
	// whenever Len() > 0.
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

// block returns sealed block b's bytes, through the end of its chunk.
func (l *Log[T]) block(b int) []byte {
	c := &l.chunks[l.chunkOf(b)]
	_, off := c.head(b - c.first)
	return c.b[off:]
}

// blockBufs are the arrays All and At decode a block into, shared by
// every Log as sealBufs are: a free list of *[LogBlock]T for every T read,
// so a log drained after every batch decodes without allocating.
var blockBufs struct {
	sync.Mutex
	free []any
}

// getBlockBuf takes a free block array of T from blockBufs, or makes one.
func getBlockBuf[T any]() *[LogBlock]T {
	blockBufs.Lock()
	defer blockBufs.Unlock()
	for k := len(blockBufs.free) - 1; k >= 0; k-- {
		if p, ok := blockBufs.free[k].(*[LogBlock]T); ok {
			last := len(blockBufs.free) - 1
			blockBufs.free[k], blockBufs.free[last] = blockBufs.free[last], nil
			blockBufs.free = blockBufs.free[:last]
			return p
		}
	}
	return new([LogBlock]T)
}

// putBlockBuf gives p back to blockBufs.
func putBlockBuf[T any](p *[LogBlock]T) {
	blockBufs.Lock()
	blockBufs.free = append(blockBufs.free, p)
	blockBufs.Unlock()
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
	var zero T
	buf := getBlockBuf[T]()
	defer putBlockBuf(buf)
	blk, _ := zero.AppendDecoded(buf[:0], l.block(i/LogBlock), i%LogBlock+1)
	return blk[len(blk)-1]
}

// All iterates the entries in order, decoding the sealed ones a block at
// a time as it goes.
func (l *Log[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		if s := l.sealed(); s > 0 {
			buf := getBlockBuf[T]()
			defer putBlockBuf(buf)
			for b := 0; b*LogBlock < s; b++ {
				for _, v := range l.AppendBlock(buf[:0], b) {
					if !yield(v) {
						return
					}
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
	for b := 0; b*LogBlock < l.n; b++ {
		s = l.AppendBlock(s, b)
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
// or the end — to dst, decoding them into it unless b is the tail.
func (l *Log[T]) AppendBlock(dst []T, b int) []T {
	if b*LogBlock >= l.sealed() {
		return append(dst, l.tail...)
	}
	var zero T
	dst, _ = zero.AppendDecoded(dst, l.block(b), LogBlock)
	return dst
}

// Reset empties the log. It keeps the tail's array and the last chunk,
// emptied, so a log drained after every batch allocates nothing once one
// batch has fit.
func (l *Log[T]) Reset() {
	l.tail = l.tail[:0]
	if k := len(l.chunks) - 1; k >= 0 {
		l.chunks[0] = chunk{b: l.chunks[k].b[:0]}
		clear(l.chunks[1:])
		l.chunks = l.chunks[:1]
	}
	l.n = 0
}

// Trim gives back the room a log that will not grow again holds unused:
// the last chunk's, its bytes copied to the front and its index to the
// back of a chunk of exactly their size, and the tail array's, copied to
// one of its length. An empty log keeps nothing. A log may still be
// appended to after Trim; it then allocates afresh what it needs.
func (l *Log[T]) Trim() {
	if l.n == 0 {
		*l = Log[T]{}
		return
	}
	if k := len(l.chunks) - 1; k >= 0 {
		c := &l.chunks[k]
		if c.heads == 0 { // the chunk Reset kept, the only one: nothing sealed since
			l.chunks = nil
		} else if index := headBytes * c.heads; len(c.b)+index < cap(c.b) {
			b := make([]byte, len(c.b)+index)
			copy(b, c.b)
			copy(b[len(c.b):], c.b[cap(c.b)-index:cap(c.b)])
			c.b = b[:len(c.b)]
		}
	}
	if len(l.tail) < cap(l.tail) {
		l.tail = append(make([]T, 0, len(l.tail)), l.tail...)
	}
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

// DecimatedLog is a Log held under a cap by deterministic decimation
// (the waterfall's retained ranges, the request tracer's records): Keep
// appends every stride-th entry offered, the first included, and a Keep
// that finds the log at its cap first halves it and doubles the stride.
// What it keeps is a pure function of the entries offered and the cap.
// The zero value keeps every entry until its first decimation.
type DecimatedLog[T Entry[T]] struct {
	Log[T]
	stride int // 0 reads as 1
	skip   int
}

// Keep offers v to the log, which keeps it if it falls on the stride.
func (d *DecimatedLog[T]) Keep(v T, limit int) {
	if d.skip > 0 {
		d.skip--
		return
	}
	if d.Len() >= limit {
		d.Halve()
		d.stride = d.Stride() * 2
	}
	d.skip = d.Stride() - 1
	d.Append(v)
}

// Stride reports how many entries offered each kept one stands for.
func (d *DecimatedLog[T]) Stride() int { return max(d.stride, 1) }

// Skip reports how many entries Keep passes over before it keeps one.
func (d *DecimatedLog[T]) Skip() int { return d.skip }

// Widen raises the stride to at least stride: logs kept at different
// strides, read together, stand for the coarsest.
func (d *DecimatedLog[T]) Widen(stride int) { d.stride = max(d.Stride(), stride) }

// Time, AppendDeltas and AppendDecoded are Sample's Log codec: three
// varints, the differences of At, Delay and Bytes.
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

// AppendDecoded appends the n samples after s that src begins with.
func (s Sample) AppendDecoded(dst []Sample, src []byte, n int) ([]Sample, int) {
	i := 0
	for range n {
		var dAt, dDelay, dBytes int64
		dAt, i = Varint(src, i)
		dDelay, i = Varint(src, i)
		dBytes, i = Varint(src, i)
		s = Sample{At: s.At + units.Time(dAt), Delay: s.Delay + units.Duration(dDelay), Bytes: s.Bytes + int(dBytes)}
		dst = append(dst, s)
	}
	return dst, i
}
