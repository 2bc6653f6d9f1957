package exp

import (
	"reflect"
	"testing"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/faults"
	"element/internal/netem"
	"element/internal/units"
	"element/internal/waterfall"
)

func TestScenarioBasics(t *testing.T) {
	s := RunScenario(ScenarioConfig{
		Seed: 1, Rate: 10 * units.Mbps, RTT: 50 * units.Millisecond,
		Disc: aqm.KindFIFO, Duration: 10 * units.Second,
		Flows: []FlowSpec{{CC: cc.KindCubic}, {CC: cc.KindVegas}},
	})
	if len(s.Flows) != 2 {
		t.Fatalf("flows = %d", len(s.Flows))
	}
	for i, f := range s.Flows {
		if f.GoodputBps <= 0 {
			t.Fatalf("flow %d goodput = %v", i, f.GoodputBps)
		}
		if f.TotalDelay() <= 0 {
			t.Fatalf("flow %d total delay = %v", i, f.TotalDelay())
		}
	}
}

func TestScenarioElementAttachment(t *testing.T) {
	s := RunScenario(ScenarioConfig{
		Seed: 2, Rate: 10 * units.Mbps, RTT: 50 * units.Millisecond,
		Disc: aqm.KindFIFO, Duration: 10 * units.Second,
		Flows: []FlowSpec{{Element: true}, {}},
	})
	if s.Flows[0].Sender == nil || s.Flows[0].Receiver == nil {
		t.Fatal("element not attached to flow 0")
	}
	if s.Flows[1].Sender != nil {
		t.Fatal("element attached to plain flow")
	}
	if len(s.Flows[0].Sender.Estimates().Series()) == 0 {
		t.Fatal("no estimates collected")
	}
}

func TestScenarioStartStopWindows(t *testing.T) {
	s := RunScenario(ScenarioConfig{
		Seed: 3, Rate: 10 * units.Mbps, RTT: 50 * units.Millisecond,
		Disc: aqm.KindFIFO, Duration: 20 * units.Second,
		Flows: []FlowSpec{
			{},
			{StartAt: 10 * units.Second},
		},
	})
	// The late flow had half the active time; its goodput is computed over
	// its own window and should be in the same ballpark, not half.
	early, late := s.Flows[0], s.Flows[1]
	if late.Conn.Receiver.ReadCum() == 0 {
		t.Fatal("late flow never started")
	}
	if late.Conn.Receiver.ReadCum() >= early.Conn.Receiver.ReadCum() {
		t.Fatal("late flow moved more data than the early flow")
	}
}

func TestScenarioProfile(t *testing.T) {
	p := netem.Cable
	s := RunScenario(ScenarioConfig{
		Seed: 4, Profile: &p, Direction: netem.Upload,
		Disc: aqm.KindFIFO, Duration: 10 * units.Second,
		Flows: []FlowSpec{{}},
	})
	// Upload direction: bottleneck is the 10 Mbps uplink.
	if got := s.Flows[0].GoodputBps; got > 10.5e6 || got < 5e6 {
		t.Fatalf("upload goodput %.2f Mbps outside uplink envelope", got/1e6)
	}
}

func TestScenarioDynamicBW(t *testing.T) {
	s := RunScenario(ScenarioConfig{
		Seed: 5, Rate: 10 * units.Mbps, RTT: 50 * units.Millisecond,
		Disc: aqm.KindFIFO, Duration: 30 * units.Second,
		DynamicBW: &DynamicBW{Low: 10 * units.Mbps, High: 50 * units.Mbps, Period: 10 * units.Second},
		Flows:     []FlowSpec{{}},
	})
	// With 10/50 alternating the average capacity is ~30 Mbps; goodput
	// should exceed the static 10 Mbps.
	if got := s.Flows[0].GoodputBps; got < 12e6 {
		t.Fatalf("goodput %.2f Mbps did not benefit from high-rate phases", got/1e6)
	}
}

func TestRenderTable(t *testing.T) {
	r := &Result{
		ID: "x", Title: "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Series: []Series{{Name: "s", XLabel: "x", YLabel: "y", Points: [][2]float64{{1, 2}}}},
		Notes:  []string{"n"},
	}
	out := r.Render()
	for _, want := range []string{"== x: t ==", "333", "note: n", `series "s"`} {
		if !contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestDefaultsReachTable1AndFig16: the package defaults cmd/elembench
// sets around each experiment reach tab1 and fig16 — both build their
// testbeds through Build — so -waterfall attaches recorders to their flows
// and -faults moves their tables.
func TestDefaultsReachTable1AndFig16(t *testing.T) {
	t.Cleanup(func() { DefaultWaterfall, DefaultFaults = nil, nil })
	run := map[string]func() *Result{
		"tab1":  func() *Result { return Table1(1, 1, units.Second) },
		"fig16": func() *Result { return Fig16(1, units.Second) },
	}
	for _, id := range []string{"tab1", "fig16"} {
		DefaultWaterfall, DefaultFaults = waterfall.New(), nil
		polite := run[id]()
		if n := len(DefaultWaterfall.Flows()); n == 0 {
			t.Errorf("%s: DefaultWaterfall attached no recorders", id)
		}
		prof, err := faults.ByName("flaky-path")
		if err != nil {
			t.Fatal(err)
		}
		DefaultWaterfall, DefaultFaults = nil, &prof
		if faulted := run[id](); reflect.DeepEqual(faulted.Rows, polite.Rows) {
			t.Errorf("%s: rows under DefaultFaults %q equal the unfaulted rows", id, prof.Name)
		}
	}
}
