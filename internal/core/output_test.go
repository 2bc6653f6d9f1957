package core

import (
	"strings"
	"testing"

	"element/internal/units"
)

func TestEstimatesWriteTo(t *testing.T) {
	var e Estimates
	e.add(Measurement{
		At: units.Time(1500 * units.Millisecond), Delay: 25 * units.Millisecond, Bytes: 1460,
		Cwnd: 42, Ssthresh: 100, RTT: 50 * units.Millisecond,
	})
	var sb strings.Builder
	n, err := e.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if int64(len(out)) != n {
		t.Fatalf("WriteTo returned %d, wrote %d", n, len(out))
	}
	if !strings.HasPrefix(out, "# t_seconds") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1.500000\t0.025000\t42\t100\t0.050000") {
		t.Fatalf("row not formatted: %q", out)
	}
}

func TestEstimatesWriteToError(t *testing.T) {
	var e Estimates
	e.add(Measurement{})
	if _, err := e.WriteTo(failWriter{}); err == nil {
		t.Fatal("error not propagated")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errBoom }

var errBoom = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }
