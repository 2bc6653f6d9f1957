package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"element/internal/testutil"
	"element/internal/units"
)

func TestNilSafety(t *testing.T) {
	testutil.NoLeaks(t)
	var tel *Telemetry
	tel.SetClock(func() units.Time { return 0 })
	sc := tel.Scope("tcp").WithFlow(3)
	if sc != nil {
		t.Fatalf("nil Telemetry must yield nil Scope")
	}
	sc.Counter("x").Inc()
	sc.Counter("x").Add(5)
	sc.Gauge("g").Set(1)
	sc.Histogram("h").Observe(2)
	sc.Event(SevWarn, "boom", F("a", 1))
	sc.Sample("s", F("v", 2))
	if got := sc.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %v", got)
	}
	if n := tel.Tracer().Len(); n != 0 {
		t.Fatalf("nil tracer len = %d", n)
	}
	if err := tel.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
}

func TestRegistryIdentityAndValues(t *testing.T) {
	tel := New()
	a := tel.Scope("tcp")
	if a.Counter("retransmits") != a.Counter("retransmits") {
		t.Fatalf("same component/name must return the same counter")
	}
	if a.Counter("retransmits") == tel.Scope("aqm").Counter("retransmits") {
		t.Fatalf("different components must get distinct counters")
	}
	c := a.Counter("retransmits")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	g := a.Gauge("ooo_bytes")
	if _, ok := g.Value(); ok {
		t.Fatalf("unset gauge must report !ok")
	}
	g.Set(10)
	g.Set(4)
	if v, ok := g.Value(); !ok || v != 4 {
		t.Fatalf("gauge = %v,%v want 4,true", v, ok)
	}

	cs := tel.Registry().Counters()
	if len(cs) != 2 || cs[0].Component != "aqm" || cs[1].Component != "tcp" {
		t.Fatalf("Counters() not sorted by component/name: %+v", cs)
	}
}

func TestHistogramLogLinear(t *testing.T) {
	tel := New()
	h := tel.Scope("core").Histogram("delay_seconds")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000) // 1 ms .. 1 s uniform
	}
	h.Observe(0)
	h.Observe(-1) // clamps to 0
	if h.Count() != 1002 {
		t.Fatalf("count = %d, want 1002", h.Count())
	}
	if h.Min() != 0 || h.Max() != 1 {
		t.Fatalf("min/max = %v/%v, want 0/1", h.Min(), h.Max())
	}
	if mean := h.Mean(); mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean = %v, want ≈0.5", mean)
	}
	// Log-linear buckets are ≤ ~12.5% wide, so quantiles land close.
	if q := h.Quantile(0.5); q < 0.45 || q > 0.57 {
		t.Fatalf("p50 = %v, want ≈0.5", q)
	}
	if q := h.Quantile(0.99); q < 0.9 || q > 1.0 {
		t.Fatalf("p99 = %v, want ≈0.99", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %v, want 0 (zero observations present)", q)
	}

	// Extreme values clamp into the end buckets instead of panicking.
	h2 := tel.Scope("core").Histogram("extremes")
	h2.Observe(math.Ldexp(1, -100))
	h2.Observe(math.Ldexp(1, 100))
	if h2.Count() != 2 {
		t.Fatalf("extreme count = %d", h2.Count())
	}
	// Out-of-range values clamp into the end buckets: a quantile there
	// reports the bucket's edge, not the true value, but never leaves the
	// exact observed [min, max] — and the top rank is the max itself.
	if q := h2.Quantile(0.5); q <= h2.Min() || q > 1e-8 {
		t.Fatalf("q0.5 = %v, want the first bucket's edge: above min %v, far below 1", q, h2.Min())
	}
	if q := h2.Quantile(1); q != h2.Max() || q != math.Ldexp(1, 100) {
		t.Fatalf("q1 = %v, want the observed max %v", q, h2.Max())
	}
}

func TestTracerRingEviction(t *testing.T) {
	tel := NewWithRing(4)
	var now units.Time
	tel.SetClock(func() units.Time { return now })
	sc := tel.Scope("tcp")
	for i := 0; i < 10; i++ {
		now = units.Time(i)
		sc.Event(SevInfo, "ev", F("i", float64(i)))
	}
	tr := tel.Tracer()
	if tr.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", tr.Len())
	}
	if tr.Evicted() != 6 {
		t.Fatalf("evicted = %d, want 6", tr.Evicted())
	}
	evs := tr.Events()
	for i, ev := range evs {
		want := float64(6 + i) // oldest-first, newest window retained
		if ev.Fields[0].Val != want {
			t.Fatalf("event %d = %v, want %v", i, ev.Fields[0].Val, want)
		}
	}
	if evs[0].At != 6 || evs[3].At != 9 {
		t.Fatalf("timestamps wrong after wrap: %v .. %v", evs[0].At, evs[3].At)
	}
}

func TestChromeTraceExport(t *testing.T) {
	testutil.NoLeaks(t)
	tel := New()
	var now units.Time = 1500 * units.Time(units.Microsecond)
	tel.SetClock(func() units.Time { return now })
	tel.Scope("sockbuf").WithFlow(1).Sample("occupancy", F("bytes", 4096), Str("ignored", "x"))
	tel.Scope("tcp").WithFlow(1).Event(SevWarn, "rto", F("rto_s", 0.2))

	var buf bytes.Buffer
	if err := tel.Export(&buf, FormatChrome); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var phases []string
	var cats []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
		if c, ok := ev["cat"].(string); ok {
			cats = append(cats, c)
		}
	}
	joined := strings.Join(phases, "")
	if !strings.Contains(joined, "C") || !strings.Contains(joined, "i") || !strings.Contains(joined, "M") {
		t.Fatalf("want counter, instant and metadata events, got phases %v", phases)
	}
	if !strings.Contains(strings.Join(cats, ","), "sockbuf") {
		t.Fatalf("missing sockbuf category: %v", cats)
	}
	// Counter tracks must not carry string args; 1.5 ms → 1500 µs.
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "C" {
			args := ev["args"].(map[string]any)
			if _, bad := args["ignored"]; bad {
				t.Fatalf("counter track kept a string arg: %v", args)
			}
			if ev["ts"].(float64) != 1500 {
				t.Fatalf("ts = %v µs, want 1500", ev["ts"])
			}
		}
	}
}

func TestJSONLExport(t *testing.T) {
	tel := New()
	tel.Scope("core").WithFlow(2).Event(SevInfo, "match", F("delay_s", 0.01))
	tel.Scope("aqm").Sample("queue", F("packets", 7))
	var buf bytes.Buffer
	if err := tel.Export(&buf, FormatJSONL); err != nil {
		t.Fatalf("jsonl export: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), buf.String())
	}
	var rec struct {
		T         float64        `json:"t"`
		Component string         `json:"component"`
		Flow      int            `json:"flow"`
		Event     string         `json:"event"`
		Sev       string         `json:"sev"`
		Sample    bool           `json:"sample"`
		Fields    map[string]any `json:"fields"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 invalid: %v", err)
	}
	if rec.Component != "core" || rec.Flow != 2 || rec.Event != "match" || rec.Sev != "info" {
		t.Fatalf("line 0 = %+v", rec)
	}
	if rec.Fields["delay_s"] != 0.01 {
		t.Fatalf("fields = %v", rec.Fields)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 1 invalid: %v", err)
	}
	if !rec.Sample || rec.Component != "aqm" {
		t.Fatalf("line 1 = %+v", rec)
	}
}

func TestTextExport(t *testing.T) {
	tel := New()
	tel.Scope("tcp").Counter("retransmits").Add(3)
	tel.Scope("sockbuf").Gauge("cap_bytes").Set(65536)
	h := tel.Scope("aqm").Histogram("sojourn_seconds")
	h.Observe(0.01)
	h.Observe(0.02)
	var buf bytes.Buffer
	if err := tel.Export(&buf, FormatText); err != nil {
		t.Fatalf("text export: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE element_retransmits counter",
		`element_retransmits{component="tcp"} 3`,
		`element_cap_bytes{component="sockbuf"} 65536`,
		"# TYPE element_sojourn_seconds summary",
		`element_sojourn_seconds_count{component="aqm"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text export missing %q:\n%s", want, out)
		}
	}
}

// parsePromText is a minimal parser for the Prometheus text exposition
// format, strict enough to catch the mistakes standard tooling rejects:
// samples without a preceding # HELP/# TYPE, and un-escaped label values.
func parsePromText(t *testing.T, text string) map[string]map[string]float64 {
	t.Helper()
	unescape := func(s string) string {
		var b strings.Builder
		for i := 0; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				case '\\', '"':
					b.WriteByte(s[i])
				default:
					t.Fatalf("invalid escape \\%c in label value %q", s[i], s)
				}
				continue
			}
			b.WriteByte(s[i])
		}
		return b.String()
	}
	helped := map[string]bool{}
	typed := map[string]bool{}
	out := map[string]map[string]float64{} // metric → label-signature → value
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("HELP line without docstring: %q", line)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			switch kind {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("bad TYPE %q in %q", kind, line)
			}
			if !helped[name] {
				t.Fatalf("TYPE before HELP for %s", name)
			}
			typed[name] = true
			continue
		}
		// Sample line: name{labels} value
		brace := strings.IndexByte(line, '{')
		closeBrace := strings.LastIndexByte(line, '}')
		if brace < 0 || closeBrace < brace {
			t.Fatalf("unlabelled sample line: %q", line)
		}
		name := line[:brace]
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[family] {
			t.Fatalf("sample %q has no preceding # TYPE", name)
		}
		var sig strings.Builder
		labels := line[brace+1 : closeBrace]
		for labels != "" {
			eq := strings.IndexByte(labels, '=')
			if eq < 0 || eq+1 >= len(labels) || labels[eq+1] != '"' {
				t.Fatalf("malformed labels in %q", line)
			}
			key := labels[:eq]
			rest := labels[eq+2:]
			end := -1
			for i := 0; i < len(rest); i++ {
				if rest[i] == '\\' {
					i++
					continue
				}
				if rest[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("unterminated label value in %q", line)
			}
			fmt.Fprintf(&sig, "%s=%s;", key, unescape(rest[:end]))
			labels = strings.TrimPrefix(rest[end+1:], ",")
		}
		valStr := strings.TrimSpace(line[closeBrace+1:])
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		if out[name] == nil {
			out[name] = map[string]float64{}
		}
		out[name][sig.String()] = val
	}
	return out
}

// TestTextExportRoundTrip writes the registry in the Prometheus text format
// and parses it back, including a component name that needs every escape
// (backslash, quote, newline), asserting values survive unchanged.
func TestTextExportRoundTrip(t *testing.T) {
	tel := New()
	tel.Scope("tcp").Counter("retransmits").Add(7)
	nasty := "comp\"quoted\\slash\nnewline"
	tel.Scope(nasty).Counter("retransmits").Add(2)
	tel.Scope("sockbuf").Gauge("cap_bytes").Set(1 << 16)
	h := tel.Scope("aqm").Histogram("sojourn_seconds")
	h.Observe(0.25)
	h.Observe(0.75)

	var buf bytes.Buffer
	if err := tel.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	parsed := parsePromText(t, buf.String())

	if got := parsed["element_retransmits"]["component=tcp;"]; got != 7 {
		t.Fatalf("tcp retransmits = %v, want 7", got)
	}
	if got := parsed["element_retransmits"]["component="+nasty+";"]; got != 2 {
		t.Fatalf("escaped-component retransmits = %v, want 2; keys: %v", got, parsed["element_retransmits"])
	}
	if got := parsed["element_cap_bytes"]["component=sockbuf;"]; got != 1<<16 {
		t.Fatalf("cap_bytes = %v, want %d", got, 1<<16)
	}
	if got := parsed["element_sojourn_seconds_count"]["component=aqm;"]; got != 2 {
		t.Fatalf("sojourn count = %v, want 2", got)
	}
	if got := parsed["element_sojourn_seconds_sum"]["component=aqm;"]; got != 1 {
		t.Fatalf("sojourn sum = %v, want 1", got)
	}
	if !strings.Contains(buf.String(), "# HELP element_retransmits ") {
		t.Fatalf("missing HELP line:\n%s", buf.String())
	}
}

func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"chrome", "jsonl", "text"} {
		if _, err := ParseFormat(ok); err != nil {
			t.Fatalf("ParseFormat(%q): %v", ok, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatalf("ParseFormat must reject unknown formats")
	}
}
