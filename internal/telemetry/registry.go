package telemetry

import (
	"math"
	"sort"

	"element/internal/telemetry/stream"
)

// Registry holds the run's metrics, keyed by component/name. Handles are
// resolved once at instrumentation time, so the per-update cost is a
// nil-check plus a float add — no map lookups, no atomics (the simulation
// is single-threaded per engine).
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

func key(component, name string) string { return component + "/" + name }

func (r *Registry) counter(component, name string) *Counter {
	k := key(component, name)
	c := r.counters[k]
	if c == nil {
		c = &Counter{Component: component, Name: name}
		r.counters[k] = c
	}
	return c
}

func (r *Registry) gauge(component, name string) *Gauge {
	k := key(component, name)
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{Component: component, Name: name}
		r.gauges[k] = g
	}
	return g
}

func (r *Registry) histogram(component, name string) *Histogram {
	k := key(component, name)
	h := r.histograms[k]
	if h == nil {
		h = &Histogram{Component: component, Name: name}
		r.histograms[k] = h
	}
	return h
}

// Counters returns all counters sorted by component/name (nil-safe).
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	out := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return key(out[i].Component, out[i].Name) < key(out[j].Component, out[j].Name)
	})
	return out
}

// Gauges returns all gauges sorted by component/name (nil-safe).
func (r *Registry) Gauges() []*Gauge {
	if r == nil {
		return nil
	}
	out := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		return key(out[i].Component, out[i].Name) < key(out[j].Component, out[j].Name)
	})
	return out
}

// Histograms returns all histograms sorted by component/name (nil-safe).
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	out := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		return key(out[i].Component, out[i].Name) < key(out[j].Component, out[j].Name)
	})
	return out
}

// Counter is a monotonically increasing metric.
type Counter struct {
	Component, Name string
	v               float64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d (negative deltas are ignored: counters only go up).
func (c *Counter) Add(d float64) {
	if c != nil && d > 0 {
		c.v += d
	}
}

// Value reports the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value metric.
type Gauge struct {
	Component, Name string
	v               float64
	set             bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
		g.set = true
	}
}

// Value reports the last value set and whether Set was ever called.
func (g *Gauge) Value() (float64, bool) {
	if g == nil {
		return 0, false
	}
	return g.v, g.set
}

// Histogram is a fixed-memory log-linear histogram of non-negative
// values: a stream.Sketch — the one quantile structure the monitoring
// plane uses, so registry histograms and streamed windows report the
// same quantile for the same samples — plus the running sum the
// Prometheus summary exposition needs. The sketch's range is tuned for
// delays in seconds (a nanosecond to about seventeen minutes, ≤ 12.5 %
// relative bucket width); values outside it clamp into the end buckets,
// with quantiles still bounded by the exact observed min and max.
type Histogram struct {
	Component, Name string

	sum float64
	sk  stream.Sketch
}

// Observe records one value. Negative values are clamped to zero; NaN
// is ignored.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if v > 0 {
		h.sum += v
	}
	h.sk.Observe(v) // clamps negatives itself
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.sk.Count()
}

// Sum reports the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min reports the smallest observation (0 if none).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	return h.sk.Min()
}

// Max reports the largest observation (0 if none).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.sk.Max()
}

// Mean reports the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.sum / float64(n)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1): the upper edge of the
// bucket where the cumulative count crosses q·count, clamped to the
// observed min/max (see stream.Sketch.Quantile).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.sk.Quantile(q)
}
