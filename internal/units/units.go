// Package units defines the scalar types shared across the simulator:
// virtual time, data rates, and byte sizes.
//
// Virtual time is an int64 nanosecond count since the start of a simulation
// run. It deliberately mirrors time.Duration so that arithmetic is cheap and
// overflow-free for multi-hour simulated experiments.
package units

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
// The zero Time is the beginning of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. Time and Duration are
// kept as distinct types so that signatures document whether an argument is
// absolute or relative.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports d as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration in the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second || d <= -Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond || d <= -Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// DurationFromSeconds converts a float64 second count into a Duration.
func DurationFromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// Rate is a data rate in bits per second.
type Rate float64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1e3 * BitPerSecond
	Mbps              = 1e6 * BitPerSecond
	Gbps              = 1e9 * BitPerSecond
)

// TransmissionTime reports how long it takes to serialize n bytes at rate r.
// For a non-positive rate (the caller should treat the link as stalled) it
// returns a very large duration instead of dividing by zero.
func (r Rate) TransmissionTime(n int) Duration {
	if r <= 0 {
		return Duration(math.MaxInt64 / 2)
	}
	return Duration(float64(n) * 8 / float64(r) * float64(Second))
}

// BytesPerSecond reports the rate in bytes per second.
func (r Rate) BytesPerSecond() float64 { return float64(r) / 8 }

// String formats the rate in the most natural unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2fGbps", float64(r)/1e9)
	case r >= Mbps:
		return fmt.Sprintf("%.2fMbps", float64(r)/1e6)
	case r >= Kbps:
		return fmt.Sprintf("%.2fKbps", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.0fbps", float64(r))
	}
}
