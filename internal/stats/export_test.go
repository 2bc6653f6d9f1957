package stats

import (
	"testing"
	"unsafe"
)

// CheckLog is checkLog for the codec tests of the entry types declared
// outside this package (log_codec_test.go).
func CheckLog[T interface {
	Entry[T]
	comparable
}](t testing.TB, l *Log[T], ref []T) {
	t.Helper()
	checkLog(t, l, ref)
}

// HeldBytes is what l holds on the heap, whether used or not: its
// chunks, its tail's array and its chunk list.
func HeldBytes[T Entry[T]](l *Log[T]) int {
	n := cap(l.tail)*int(unsafe.Sizeof(*new(T))) + cap(l.chunks)*int(unsafe.Sizeof(chunk{}))
	for _, c := range l.chunks {
		n += cap(c.b)
	}
	return n
}
