package waterfall

import "sort"

// Absorb folds a quiescent per-shard waterfall into w: src's recorders
// are appended (re-parented to w and its clock, so none pins src's
// engine; their in-flight queues and truth sinks released, since nothing
// arrives to finalize them) and its notes merge time-ordered under the usual retention cap. The
// flow-ID index is deliberately not merged — IDs are allocated per
// engine, so recorders from different shards can share an ID; packet
// dispatch is over by the time shards are absorbed, and per-flow results
// are read through Flows(), which stays unambiguous. Telemetry histogram
// handles are not touched either: each shard instruments its own
// registry and the registries merge separately.
//
// Absorb must only run at a barrier, never while src is still recording.
// Nil-safe on both sides.
func (w *Waterfall) Absorb(src *Waterfall) {
	if w == nil || src == nil {
		return
	}
	for _, r := range src.recs {
		r.wf, r.clock = w, w.clock
		r.writes, r.writeHead = nil, 0
		r.segs, r.segHead = nil, 0
		r.arrivals, r.arrHead, r.inHead = nil, 0, 0
		r.truth = nil
		w.recs = append(w.recs, r)
	}
	src.recs = nil

	if len(src.notes) > 0 {
		w.notes = append(w.notes, src.notes...)
		sort.SliceStable(w.notes, func(i, j int) bool { return w.notes[i].At < w.notes[j].At })
		if len(w.notes) > maxMarks {
			w.lostNotes += len(w.notes) - maxMarks
			w.notes = w.notes[:maxMarks]
		}
	}
	w.lostNotes += src.lostNotes
}
