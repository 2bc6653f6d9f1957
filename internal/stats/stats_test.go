package stats

import (
	"testing"
	"testing/quick"

	"element/internal/units"
)

func TestSeriesMeanUnweighted(t *testing.T) {
	s := Series{
		{Delay: 10 * units.Millisecond},
		{Delay: 20 * units.Millisecond},
		{Delay: 30 * units.Millisecond},
	}
	if got := s.Mean(); got != 20*units.Millisecond {
		t.Fatalf("Mean = %v", got)
	}
}

func TestSeriesMeanWeighted(t *testing.T) {
	s := Series{
		{Delay: 10 * units.Millisecond, Bytes: 900},
		{Delay: 100 * units.Millisecond, Bytes: 100},
	}
	if got := s.Mean(); got != 19*units.Millisecond {
		t.Fatalf("Mean = %v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Stdev() != 0 {
		t.Fatal("empty series stats nonzero")
	}
	if _, ok := s.At(0); ok {
		t.Fatal("At on empty returned ok")
	}
}

func TestCDFBasics(t *testing.T) {
	vals := []units.Duration{
		4 * units.Millisecond, units.Millisecond,
		3 * units.Millisecond, 2 * units.Millisecond,
	}
	c := NewCDF(vals)
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.FractionBelow(2 * units.Millisecond); got != 0.5 {
		t.Fatalf("FractionBelow = %v", got)
	}
	if got := c.FractionBelow(10 * units.Millisecond); got != 1 {
		t.Fatalf("FractionBelow(max) = %v", got)
	}
	if got := c.Percentile(0); got != units.Millisecond {
		t.Fatalf("P0 = %v", got)
	}
	if got := c.Percentile(100); got != 4*units.Millisecond {
		t.Fatalf("P100 = %v", got)
	}
	if pts := c.Points(4); len(pts) != 4 || pts[3][1] != 1 {
		t.Fatalf("Points = %v", pts)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.FractionBelow(units.Second) != 0 || c.Percentile(50) != 0 || c.Points(5) != nil {
		t.Fatal("empty CDF misbehaves")
	}
}

func TestMeanStdev(t *testing.T) {
	m, sd := MeanStdev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if sd != 2 {
		t.Fatalf("stdev = %v", sd)
	}
	if m, sd := MeanStdev(nil); m != 0 || sd != 0 {
		t.Fatal("empty MeanStdev nonzero")
	}
}

// Property: CDF percentiles are monotone and FractionBelow is a
// nondecreasing step function consistent with N.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]units.Duration, len(raw))
		for i, r := range raw {
			vals[i] = units.Duration(r)
		}
		c := NewCDF(vals)
		prev := units.Duration(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := c.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return c.FractionBelow(c.Percentile(100)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interpolation stays within the envelope of neighbouring points.
func TestPropertySeriesAtWithinEnvelope(t *testing.T) {
	f := func(deltas []uint16) bool {
		if len(deltas) < 2 {
			return true
		}
		s := make(Series, 0, len(deltas))
		at := units.Time(0)
		for _, d := range deltas {
			at = at.Add(units.Duration(d%1000+1) * units.Millisecond)
			s = append(s, Sample{At: at, Delay: units.Duration(d) * units.Microsecond})
		}
		for i := 0; i+1 < len(s); i++ {
			mid := s[i].At + (s[i+1].At-s[i].At)/2
			v, ok := s.At(mid)
			if !ok {
				return false
			}
			lo, hi := s[i].Delay, s[i+1].Delay
			if lo > hi {
				lo, hi = hi, lo
			}
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
