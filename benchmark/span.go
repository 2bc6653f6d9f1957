package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans live in memory
// until the benchmark ends; writeJSONL puts them in
// benchmark/out/trace-<workload>.jsonl. StartNs/EndNs are host
// nanoseconds since the recorder was created. Parent is the ID of the
// span that caused this one (0 = root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Ops is how many layer operations the span covers, so a reader can
	// recover ns/op from the file alone.
	Ops int64 `json:"ops,omitempty"`
}

// spanRecorder collects spans from the benchmark's own files, around
// the calls into each layer (choosing-metrics §4); nothing inside
// internal/ is instrumented by it.
type spanRecorder struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, epoch: time.Now()}
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its ID; end closes it. Both are no-ops
// on a nil recorder, so the untraced pass runs the same code unrecorded.
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload, StartNs: r.now(),
	})
	return len(r.spans)
}

func (r *spanRecorder) end(id int, ops int64) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	s.EndNs, s.Ops = r.now(), ops
}

// child records an already-measured interval of d nanoseconds as a
// child of parent, laid at the parent's start. Composite drivers use it
// for work they counted instead of timed call by call (engine steps,
// queue operations): wrapping a 30 ns call in two clock reads would
// measure the clock.
func (r *spanRecorder) child(name string, parent int, d int64, ops int64) {
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload,
		StartNs: p.StartNs, EndNs: p.StartNs + d, Ops: ops,
	})
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children (overlapping children
// are counted once; a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, c := range cs {
			from, to := c.StartNs, c.EndNs
			if from < edge {
				from = edge
			}
			if to > s.EndNs {
				to = s.EndNs
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
