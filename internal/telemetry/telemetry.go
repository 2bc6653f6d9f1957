// Package telemetry is the simulation-wide observability layer: a metrics
// registry (counters, gauges, log-linear histograms) plus a structured
// event tracer, both keyed by component, with exporters for Chrome
// trace_event JSON (chrome://tracing / Perfetto), JSONL event dumps, and a
// Prometheus-style text snapshot.
//
// Design constraints, in order:
//
//   - Zero dependencies and zero behavioural impact: telemetry only records,
//     it never schedules events or perturbs the simulation, so instrumented
//     and uninstrumented runs of the same seed are byte-identical.
//   - Nil-safe hot paths: every handle (*Counter, *Gauge, *Histogram,
//     *Scope) no-ops on a nil receiver, so instrumentation call sites need
//     no guards and an uninstrumented run pays a single predictable
//     nil-check per site.
//   - Atomic-free: the engine is single-threaded per simulation, so plain
//     loads/stores suffice (matching internal/sim's concurrency model).
//
// Virtual time comes from a clock callback (normally sim.Engine.Now)
// installed with SetClock; until then events are stamped at time zero.
package telemetry

import (
	"element/internal/units"
)

// DefaultRingCap is the default event-ring capacity. At roughly one hundred
// bytes per event this bounds tracer memory at a few megabytes; once full,
// the oldest events are evicted.
const DefaultRingCap = 1 << 16

// Severity classifies events; the tracer drops events below its minimum.
type Severity uint8

// Severity levels, least to most severe.
const (
	SevDebug Severity = iota
	SevInfo
	SevWarn
)

// String reports the conventional lowercase name.
func (s Severity) String() string {
	switch s {
	case SevDebug:
		return "debug"
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	}
	return "unknown"
}

// Field is one key/value pair attached to an event. A non-empty Str takes
// precedence over Val in the exporters.
type Field struct {
	Key string
	Val float64
	Str string
}

// F builds a numeric field.
func F(key string, v float64) Field { return Field{Key: key, Val: v} }

// Str builds a string field.
func Str(key, v string) Field { return Field{Key: key, Str: v} }

// Telemetry bundles the metrics registry and the event tracer for one
// simulation run. A nil *Telemetry is a valid "disabled" instance: every
// method and every derived handle no-ops.
type Telemetry struct {
	clock  func() units.Time
	reg    *Registry
	tracer *Tracer
}

// New returns an enabled Telemetry with a DefaultRingCap event ring.
func New() *Telemetry { return NewWithRing(DefaultRingCap) }

// NewWithRing returns a Telemetry whose event ring holds up to cap events.
func NewWithRing(cap int) *Telemetry {
	return &Telemetry{reg: NewRegistry(), tracer: NewTracer(cap)}
}

// SetClock installs the virtual-time source (normally sim.Engine.Now).
func (t *Telemetry) SetClock(fn func() units.Time) {
	if t == nil {
		return
	}
	t.clock = fn
}

// Registry exposes the metrics registry (nil on a nil Telemetry).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracer exposes the event tracer (nil on a nil Telemetry).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

func (t *Telemetry) now() units.Time {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// Scope returns a component-bound handle used by instrumentation sites.
// Scope on a nil Telemetry returns nil, which is itself a valid no-op
// scope, so call sites never branch.
func (t *Telemetry) Scope(component string) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{t: t, component: component}
}

// Scope binds a component name (and optionally a flow ID) to a Telemetry;
// all metrics and events created through it carry that identity.
type Scope struct {
	t         *Telemetry
	component string
	flow      int
}

// WithFlow returns a copy of the scope tagged with a flow identifier
// (rendered as the thread ID in Chrome traces).
func (s *Scope) WithFlow(id int) *Scope {
	if s == nil {
		return nil
	}
	c := *s
	c.flow = id
	return &c
}

// Component reports the scope's component name ("" on nil).
func (s *Scope) Component() string {
	if s == nil {
		return ""
	}
	return s.component
}

// Counter returns the component/name counter, creating it on first use.
// Returns nil (a valid no-op handle) on a nil scope.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.t.reg.counter(s.component, name)
}

// Gauge returns the component/name gauge, creating it on first use.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.t.reg.gauge(s.component, name)
}

// Histogram returns the component/name log-linear histogram, creating it on
// first use.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.t.reg.histogram(s.component, name)
}

// Event records a point event (an instant in Chrome traces).
func (s *Scope) Event(sev Severity, name string, fields ...Field) {
	if s == nil {
		return
	}
	s.t.tracer.emit(s.t.now(), s.component, s.flow, name, sev, false, fields)
}

// Sample records a sampled time-series point (a counter track in Chrome
// traces); each field is one series. Samples are emitted at SevInfo.
func (s *Scope) Sample(name string, fields ...Field) {
	if s == nil {
		return
	}
	s.t.tracer.emit(s.t.now(), s.component, s.flow, name, SevInfo, true, fields)
}

// DefaultSampleGap is the throttling period high-frequency instrumentation
// sites use for their Samplers: ELEMENT's own TCP_INFO polling cadence, so
// a trace resolves everything the trackers themselves can see.
const DefaultSampleGap = 10 * units.Millisecond

// Sampler is a rate-limited Sample: a cached handle for one per-packet (or
// per-ACK) time series that keeps at most one point per gap of virtual
// time. Registry metrics at the same site stay exact — only the trace's
// time-series density is capped. A nil Sampler no-ops.
type Sampler struct {
	sc     *Scope
	name   string
	compID uint16   // component, name, and field keys pre-interned at
	nameID uint16   // creation, so the recording path does no intern-table
	keyIDs []uint16 // lookups at all
	gap    units.Duration
	last   units.Time
	armed  bool
}

// Sampler returns a throttled sampler for name emitting at most one point
// per gap (gap <= 0 disables throttling). keys, if given, pre-declare the
// field keys that SampleVals/SampleValsAt values correspond to
// positionally. Returns nil on a nil scope.
func (s *Scope) Sampler(name string, gap units.Duration, keys ...string) *Sampler {
	if s == nil {
		return nil
	}
	tr := s.t.tracer
	sp := &Sampler{
		sc:     s,
		name:   name,
		compID: tr.intern(s.component),
		nameID: tr.intern(name),
		gap:    gap,
	}
	for _, k := range keys {
		sp.keyIDs = append(sp.keyIDs, tr.intern(k))
	}
	return sp
}

// Due reports whether the next Sample call would record (nil-safe). Hot
// call sites use it to skip computing field values for points the
// throttle would discard anyway.
func (sp *Sampler) Due() bool {
	if sp == nil {
		return false
	}
	return !sp.armed || sp.sc.t.now().Sub(sp.last) >= sp.gap
}

// DueAt is Due for call sites that already hold the current virtual time,
// sparing per-packet paths the clock indirection.
func (sp *Sampler) DueAt(now units.Time) bool {
	if sp == nil {
		return false
	}
	return !sp.armed || now.Sub(sp.last) >= sp.gap
}

// Sample records the point unless one was already recorded less than a gap
// of virtual time ago.
func (sp *Sampler) Sample(fields ...Field) {
	if sp == nil {
		return
	}
	sp.SampleAt(sp.sc.t.now(), fields...)
}

// SampleAt is Sample for call sites that already hold the current virtual
// time.
func (sp *Sampler) SampleAt(now units.Time, fields ...Field) {
	if sp == nil {
		return
	}
	if sp.armed && now.Sub(sp.last) < sp.gap {
		return
	}
	sp.armed = true
	sp.last = now
	sp.sc.t.tracer.emitInterned(now, sp.compID, sp.sc.flow, sp.nameID, SevInfo, true, fields)
}

// SampleVals records a point with the sampler's pre-declared keys and the
// given positional values (excess values are dropped).
func (sp *Sampler) SampleVals(vals ...float64) {
	if sp == nil {
		return
	}
	sp.SampleValsAt(sp.sc.t.now(), vals...)
}

// SampleValsAt is SampleVals for call sites that already hold the current
// virtual time. With keys interned up front and no Field structs to build,
// this is the cheapest per-packet recording path.
func (sp *Sampler) SampleValsAt(now units.Time, vals ...float64) {
	if sp == nil {
		return
	}
	if sp.armed && now.Sub(sp.last) < sp.gap {
		return
	}
	sp.armed = true
	sp.last = now
	sp.sc.t.tracer.emitVals(now, sp.compID, sp.sc.flow, sp.nameID, sp.keyIDs, vals)
}
