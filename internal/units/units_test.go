package units

import (
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(1500 * Millisecond)
	if t1.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", t1.Seconds())
	}
	if d := t1.Sub(t0); d != 1500*Millisecond {
		t.Fatalf("Sub = %v", d)
	}
	if s := t1.String(); s != "1.500000s" {
		t.Fatalf("String = %q", s)
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2 * Second, "2.000s"},
		{250 * Millisecond, "250.000ms"},
		{999 * Nanosecond, "999ns"},
		{-3 * Second, "-3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Fatalf("%d: got %q want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurationFromSeconds(t *testing.T) {
	if d := DurationFromSeconds(0.5); d != 500*Millisecond {
		t.Fatalf("got %v", d)
	}
}

func TestRateTransmissionTime(t *testing.T) {
	// 1500 bytes at 10 Mbps = 1.2 ms.
	if d := (10 * Mbps).TransmissionTime(1500); d != 1200*Microsecond {
		t.Fatalf("got %v", d)
	}
	// Zero rate must not divide by zero and must be "very long".
	if d := Rate(0).TransmissionTime(1); d < Duration(1)<<60 {
		t.Fatalf("zero-rate transmission time too small: %v", d)
	}
}

func TestRateBytes(t *testing.T) {
	if got := (8 * Mbps).BytesPerSecond(); got != 1e6 {
		t.Fatalf("BytesPerSecond = %v", got)
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{2 * Gbps, "2.00Gbps"},
		{10 * Mbps, "10.00Mbps"},
		{64 * Kbps, "64.00Kbps"},
		{500, "500bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Fatalf("got %q want %q", got, c.want)
		}
	}
}

// Property: transmission time is monotonic in size and inversely related
// to rate.
func TestPropertyTransmissionMonotonic(t *testing.T) {
	f := func(n uint16, m uint16) bool {
		a, b := int(n), int(n)+int(m)+1
		r := 10 * Mbps
		if r.TransmissionTime(a) > r.TransmissionTime(b) {
			return false
		}
		return (20 * Mbps).TransmissionTime(b) <= r.TransmissionTime(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
