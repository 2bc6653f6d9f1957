package waterfall

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"element/internal/telemetry"
)

// Format names a waterfall exporter for CLI flags.
type Format string

// Supported export formats.
const (
	FormatChrome Format = "chrome"
	FormatJSONL  Format = "jsonl"
	FormatASCII  Format = "ascii"
)

// ParseFormat validates a -waterfall-format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatChrome, FormatJSONL, FormatASCII:
		return Format(s), nil
	}
	return "", fmt.Errorf("waterfall: unknown format %q (have chrome, jsonl, ascii)", s)
}

// Export writes the waterfall to w in the given format.
func (w *Waterfall) Export(out io.Writer, f Format) error {
	if w == nil {
		return nil
	}
	switch f {
	case FormatChrome:
		return w.WriteChromeTrace(out)
	case FormatJSONL:
		return w.WriteJSONL(out)
	case FormatASCII:
		return w.WriteASCII(out)
	}
	return fmt.Errorf("waterfall: unknown format %q", f)
}

// WriteChromeTrace writes the retained spans as Chrome trace_event JSON
// (loadable in chrome://tracing or ui.perfetto.dev): each flow is a
// process, each stage a thread track, each byte range a complete ("X")
// duration event on the stage it occupied, with drops and sndbuf resizes
// as instant markers on the stage track they explain.
func (w *Waterfall) WriteChromeTrace(out io.Writer) error {
	if w == nil {
		return nil
	}
	cw := telemetry.NewChromeTraceWriter(out)
	for _, r := range w.recs {
		pid := r.flowID
		meta := telemetry.ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("waterfall flow %d", r.flowID)},
		}
		if err := cw.Write(meta); err != nil {
			return err
		}
		for s := Stage(0); s < NumStages; s++ {
			meta := telemetry.ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: int(s) + 1,
				Args: map[string]any{"name": s.String()},
			}
			if err := cw.Write(meta); err != nil {
				return err
			}
		}
		for sp := range r.spans() {
			ev := telemetry.ChromeEvent{
				Name:  fmt.Sprintf("[%d,%d)", sp.Start, sp.End),
				Cat:   "waterfall",
				Ph:    "X",
				TsUs:  float64(sp.From) / 1e3,
				DurUs: float64(sp.To.Sub(sp.From)) / 1e3,
				Pid:   pid,
				Tid:   int(sp.Stage) + 1,
				Args: map[string]any{
					"bytes": sp.End - sp.Start,
					"gen":   sp.Gen,
				},
			}
			if err := cw.Write(ev); err != nil {
				return err
			}
		}
		for d := range r.drops.All() {
			tid := int(StageQueue) + 1
			if d.Kind == DropWire {
				tid = int(StageWire) + 1
			}
			ev := telemetry.ChromeEvent{
				Name: "drop(" + d.Kind.String() + ")", Cat: "waterfall",
				Ph: "i", Scope: "t",
				TsUs: float64(d.At) / 1e3, Pid: pid, Tid: tid,
				Args: map[string]any{"seq": d.Seq, "gen": d.Gen},
			}
			if err := cw.Write(ev); err != nil {
				return err
			}
		}
		for rz := range r.resizes.All() {
			ev := telemetry.ChromeEvent{
				Name: "sndbuf_resize", Cat: "waterfall",
				Ph: "i", Scope: "t",
				TsUs: float64(rz.At) / 1e3, Pid: pid, Tid: int(StageSndbuf) + 1,
				Args: map[string]any{"from": rz.From, "to": rz.To},
			}
			if err := cw.Write(ev); err != nil {
				return err
			}
		}
	}
	// Scenario-level notes (injected faults etc.) land as global instant
	// events so they cut across every flow's tracks.
	for _, n := range w.notes {
		ev := telemetry.ChromeEvent{
			Name: n.Name, Cat: "notes",
			Ph: "i", Scope: "g",
			TsUs: float64(n.At) / 1e3,
			Args: map[string]any{"detail": n.Detail},
		}
		if err := cw.Write(ev); err != nil {
			return err
		}
	}
	return cw.Close()
}

// jsonlSpan is the JSONL export schema for spans and markers: one object
// per line, distinguished by "type".
type jsonlSpan struct {
	Type   string  `json:"type"` // "span", "drop", "resize", "note"
	Flow   int     `json:"flow"`
	Stage  string  `json:"stage,omitempty"`
	Start  uint64  `json:"start,omitempty"`
	End    uint64  `json:"end,omitempty"`
	Gen    int     `json:"gen,omitempty"`
	FromS  float64 `json:"from_s,omitempty"`
	ToS    float64 `json:"to_s,omitempty"`
	AtS    float64 `json:"at_s,omitempty"`
	Kind   string  `json:"kind,omitempty"`
	Seq    uint64  `json:"seq,omitempty"`
	From   int     `json:"from,omitempty"`
	To     int     `json:"to,omitempty"`
	Name   string  `json:"name,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// WriteJSONL writes the retained spans and markers as one JSON object per
// line — the format for ad-hoc jq/awk analysis.
func (w *Waterfall) WriteJSONL(out io.Writer) error {
	if w == nil {
		return nil
	}
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for _, r := range w.recs {
		for sp := range r.spans() {
			js := jsonlSpan{
				Type: "span", Flow: r.flowID, Stage: sp.Stage.String(),
				Start: sp.Start, End: sp.End, Gen: sp.Gen,
				FromS: sp.From.Seconds(), ToS: sp.To.Seconds(),
			}
			if err := enc.Encode(js); err != nil {
				return err
			}
		}
		for d := range r.drops.All() {
			js := jsonlSpan{
				Type: "drop", Flow: r.flowID, Kind: d.Kind.String(),
				Seq: d.Seq, Gen: d.Gen, AtS: d.At.Seconds(),
			}
			if err := enc.Encode(js); err != nil {
				return err
			}
		}
		for rz := range r.resizes.All() {
			js := jsonlSpan{
				Type: "resize", Flow: r.flowID,
				AtS: rz.At.Seconds(), From: rz.From, To: rz.To,
			}
			if err := enc.Encode(js); err != nil {
				return err
			}
		}
	}
	for _, n := range w.notes {
		js := jsonlSpan{
			Type: "note", AtS: n.At.Seconds(),
			Name: n.Name, Detail: n.Detail,
		}
		if err := enc.Encode(js); err != nil {
			return err
		}
	}
	return bw.Flush()
}
