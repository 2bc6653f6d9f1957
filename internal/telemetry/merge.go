package telemetry

// Cross-instance aggregation. The sharded fleet gives each shard its own
// Telemetry (the hot paths stay atomic-free and single-threaded per
// engine) and folds the shards into the caller's instance at barrier
// points, after the shard goroutines have quiesced. Merging is therefore
// a cold path: it may allocate, and it must never be called while the
// source is still being written.

// Merge folds src's metrics into r: counters add, histograms add
// bucket-wise (the sketch merge is exact), and gauges sum, so fleets that
// publish into one instance add up (a fleet folds its health gauges
// once, at drain); a gauge whose merged value should be something other
// than a sum does not belong in a per-shard registry.
// Nil receivers and sources no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for k, c := range src.counters {
		dst := r.counters[k]
		if dst == nil {
			dst = &Counter{Component: c.Component, Name: c.Name}
			r.counters[k] = dst
		}
		dst.v += c.v
	}
	for k, g := range src.gauges {
		dst := r.gauges[k]
		if dst == nil {
			dst = &Gauge{Component: g.Component, Name: g.Name}
			r.gauges[k] = dst
		}
		if g.set {
			dst.v += g.v
			dst.set = true
		}
	}
	for k, h := range src.histograms {
		dst := r.histograms[k]
		if dst == nil {
			dst = &Histogram{Component: h.Component, Name: h.Name}
			r.histograms[k] = dst
		}
		dst.sum += h.sum
		dst.sk.Merge(&h.sk)
	}
}

// Merge folds src's retained events into t, re-interning their strings
// into t's table, preserving src's internal (time) order. Events from
// different sources interleave in call order, not globally by timestamp —
// exporters that need strict time order sort on At. Eviction accounting
// carries over. Nil-safe on both sides.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	for _, ev := range src.Events() {
		t.emit(ev.At, ev.Component, ev.Flow, ev.Name, ev.Sev, ev.Sample, ev.Fields)
	}
	t.evicted += src.evicted
}

// Merge folds src's registry and tracer into t (nil-safe). The source
// must be quiescent: merging runs at fleet barrier points, never
// concurrently with recording.
func (t *Telemetry) Merge(src *Telemetry) {
	if t == nil || src == nil {
		return
	}
	t.reg.Merge(src.reg)
	t.tracer.Merge(src.tracer)
}
