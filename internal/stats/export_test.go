package stats

import "testing"

// CheckLog is checkLog for the codec tests of the entry types declared
// outside this package (log_codec_test.go).
func CheckLog[T interface {
	Entry[T]
	comparable
}](t testing.TB, l *Log[T], ref []T) {
	t.Helper()
	checkLog(t, l, ref)
}
