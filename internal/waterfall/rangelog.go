package waterfall

import (
	"encoding/binary"
	"iter"

	"element/internal/units"
)

// maxRangeBytes is the most one encoded range takes: ten 64-bit varints.
// A range in a live flow takes about 20 B (ranges abut, and the stage
// durations are microseconds to milliseconds).
const maxRangeBytes = (3 + numBounds) * binary.MaxVarintLen64

// A rangeLog's first chunk holds firstRangeChunk bytes, and each later one
// twice the one before it, up to maxRangeChunk.
const (
	firstRangeChunk = 1 << 10
	maxRangeChunk   = 16 << 10
)

// rangeLog holds a recorder's retained ranges as delta varints. A range
// is ten varints of its differences: start − the previous range's end,
// end − start, gen, b[0] − the previous range's b[0], then b[i] − b[i−1]
// for each later fencepost; the first, third and fourth are signed and
// zigzagged. The differences wrap as Go's integer arithmetic does, so
// decoding gives back every rangeRec exactly, whatever its fields hold.
// The bytes lie in chunks that are never moved or grown; a range never
// straddles two of them.
type rangeLog struct {
	chunks [][]byte
	n      int
	// The last range's end and b[0]: what the next range is a difference
	// from.
	end   uint64
	write units.Time
}

// Len reports the number of ranges held.
func (l *rangeLog) Len() int { return l.n }

// Append adds rr at the end: straight into the last chunk while it has
// room for the longest encoding, otherwise encoded aside and placed.
func (l *rangeLog) Append(rr *rangeRec) {
	if k := len(l.chunks); k > 0 && cap(l.chunks[k-1])-len(l.chunks[k-1]) >= maxRangeBytes {
		l.chunks[k-1] = l.encode(l.chunks[k-1], rr)
		return
	}
	var buf [maxRangeBytes]byte
	l.place(l.encode(buf[:0], rr))
}

// encode appends rr's varints to dst and counts rr in as the last range.
func (l *rangeLog) encode(dst []byte, rr *rangeRec) []byte {
	dst = binary.AppendUvarint(dst, zigzag(int64(rr.start-l.end)))
	dst = binary.AppendUvarint(dst, rr.end-rr.start)
	dst = binary.AppendUvarint(dst, zigzag(int64(rr.gen)))
	dst = binary.AppendUvarint(dst, zigzag(int64(rr.b[0]-l.write)))
	for i := 1; i < numBounds; i++ {
		dst = binary.AppendUvarint(dst, uint64(rr.b[i]-rr.b[i-1]))
	}
	l.end, l.write = rr.end, rr.b[0]
	l.n++
	return dst
}

// place appends one encoded range to the last chunk, or to a new one if
// it does not fit.
func (l *rangeLog) place(enc []byte) {
	k := len(l.chunks)
	if k == 0 || len(l.chunks[k-1])+len(enc) > cap(l.chunks[k-1]) {
		c := firstRangeChunk
		if k > 0 {
			c = min(2*cap(l.chunks[k-1]), maxRangeChunk)
		}
		l.chunks = append(l.chunks, make([]byte, 0, c))
		k++
	}
	l.chunks[k-1] = append(l.chunks[k-1], enc...)
}

// All iterates the ranges in order, decoding each from the one before.
func (l *rangeLog) All() iter.Seq[rangeRec] {
	return func(yield func(rangeRec) bool) {
		var rr rangeRec
		for _, c := range l.chunks {
			for i := 0; i < len(c); {
				i = decodeRange(c, i, &rr)
				if !yield(rr) {
					return
				}
			}
		}
	}
}

// halve keeps every other range, the first included, in a log that
// starts at full-size chunks: it is about half the size of one that holds
// maxRanges. Only a kept range's gap and b[0] difference change, so they
// alone are encoded again; its other eight varints are copied as they
// are, and a dropped range's are skipped undecoded.
func (l *rangeLog) halve() {
	kept := rangeLog{chunks: make([][]byte, 1, len(l.chunks))}
	kept.chunks[0] = make([]byte, 0, maxRangeChunk)
	var buf [maxRangeBytes]byte
	var end uint64
	var write units.Time
	i := 0
	for _, c := range l.chunks {
		for p := 0; p < len(c); i++ {
			gap, lenAt := uvarint(c, p)
			n, genAt := uvarint(c, lenAt)
			writeAt := skipVarints(c, genAt, 1)
			dw, stagesAt := uvarint(c, writeAt)
			p = skipVarints(c, stagesAt, numBounds-1)
			start := end + uint64(unzigzag(gap))
			end = start + n
			write += units.Time(unzigzag(dw))
			if i%2 == 1 {
				continue
			}
			enc := binary.AppendUvarint(buf[:0], zigzag(int64(start-kept.end)))
			enc = append(enc, c[lenAt:writeAt]...)
			enc = binary.AppendUvarint(enc, zigzag(int64(write-kept.write)))
			enc = append(enc, c[stagesAt:p]...)
			kept.place(enc)
			kept.end, kept.write = end, write
			kept.n++
		}
	}
	*l = kept
}

// decodeRange reads the range that follows rr from c at i into rr and
// returns the index past it.
func decodeRange(c []byte, i int, rr *rangeRec) int {
	gap, i := uvarint(c, i)
	n, i := uvarint(c, i)
	gen, i := uvarint(c, i)
	dw, i := uvarint(c, i)
	rr.start = rr.end + uint64(unzigzag(gap))
	rr.end = rr.start + n
	rr.gen = int(unzigzag(gen))
	rr.b[0] += units.Time(unzigzag(dw))
	for k := 1; k < numBounds; k++ {
		var d uint64
		d, i = uvarint(c, i)
		rr.b[k] = rr.b[k-1] + units.Time(d)
	}
	return i
}

// uvarint reads the varint at c[i:] and returns it and the index past it.
func uvarint(c []byte, i int) (uint64, int) {
	var x uint64
	for s := 0; ; s += 7 {
		b := c[i]
		i++
		x |= uint64(b&0x7f) << s
		if b < 0x80 {
			return x, i
		}
	}
}

// skipVarints returns the index past the k varints at c[i:].
func skipVarints(c []byte, i, k int) int {
	for ; k > 0; i++ {
		if c[i] < 0x80 {
			k--
		}
	}
	return i
}

// zigzag maps small signed values to small unsigned ones, as
// binary.AppendVarint does.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
