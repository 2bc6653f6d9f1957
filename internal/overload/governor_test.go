package overload

import "testing"

// high/low are pressure snapshots on either side of the default
// deadband for a governor with a RetainedSamples budget of 100.
var (
	high = Usage{RetainedSamples: 150} // pressure 1.5
	mid  = Usage{RetainedSamples: 90}  // pressure 0.9, inside the deadband
	low  = Usage{RetainedSamples: 10}  // pressure 0.1
)

// testConfig is the governor shape these tests share. A governor over
// n flows moves at most max(1, n/16) of them per tick, so the tests pick
// the fleet size that gives the step they check.
func testConfig() Config {
	return Config{
		Budgets:   Budgets{RetainedSamples: 100},
		HoldTicks: 4,
		Seed:      42,
	}
}

func TestGovernorDemotesUnderPressureAndRecovers(t *testing.T) {
	g := New(testConfig(), 32)
	if got := g.TierCounts()[TierFull]; got != 32 {
		t.Fatalf("initial full count = %d, want 32", got)
	}
	tr := g.Tick(high)
	if len(tr) != 2 {
		t.Fatalf("transitions = %d, want 32/16 = 2", len(tr))
	}
	for _, x := range tr {
		if x.From != TierFull || x.To != TierSketch {
			t.Fatalf("demotion %+v, want full→sketch", x)
		}
		if g.Tier(x.Flow) != TierSketch {
			t.Fatalf("flow %d tier = %v after demotion", x.Flow, g.Tier(x.Flow))
		}
	}
	if g.Sheds() != 2 {
		t.Fatalf("Sheds = %d, want 2", g.Sheds())
	}

	// Inside the deadband nothing moves, in either direction.
	if tr := g.Tick(mid); len(tr) != 0 {
		t.Fatalf("deadband tick produced %d transitions", len(tr))
	}

	// Sustained recovery promotes everyone back to full coverage.
	for i := 0; i < 100; i++ {
		g.Tick(low)
	}
	if got := g.TierCounts()[TierFull]; got != 32 {
		t.Fatalf("full count after recovery = %d, want 32 (counts %v)", got, g.TierCounts())
	}
	if g.Reclaims() != 2 {
		t.Fatalf("Reclaims = %d, want 2", g.Reclaims())
	}
}

func TestGovernorHoldPreventsImmediateReversal(t *testing.T) {
	g := New(testConfig(), 128)
	demoted := map[int]int{} // flow → tick of demotion
	tr := g.Tick(high)
	if len(tr) != 8 {
		t.Fatalf("demotions = %d, want 128/16 = 8", len(tr))
	}
	for _, x := range tr {
		demoted[x.Flow] = g.Ticks()
	}
	// Pressure collapses immediately; no flow may promote before its
	// hold (HoldTicks + jitter ∈ [4, 8) ticks) expires.
	promoted := 0
	for i := 0; i < 20; i++ {
		for _, x := range g.Tick(low) {
			promoted++
			if held := g.Ticks() - demoted[x.Flow]; held < 4 {
				t.Fatalf("flow %d reversed after %d ticks, hold is ≥ 4", x.Flow, held)
			}
		}
	}
	if promoted != len(demoted) {
		t.Fatalf("%d of %d demoted flows promoted back in 20 ticks", promoted, len(demoted))
	}
}

func TestGovernorHotFlowsShedLastRestoreFirst(t *testing.T) {
	g := New(testConfig(), 96)
	g.SetHot(3, true)
	g.SetHot(5, true)
	tr := g.Tick(high)
	if len(tr) != 6 {
		t.Fatalf("demotions = %d, want 96/16 = 6", len(tr))
	}
	// Shed until no cold flow is left at full coverage: the two hot
	// flows must be the last ones still full.
	for i := 0; g.TierCounts()[TierFull] > 2 && i < 100; i++ {
		for _, x := range tr {
			if isHot(x.Flow) {
				t.Fatalf("hot flow %d demoted while cold flows remain full", x.Flow)
			}
		}
		tr = g.Tick(high)
	}
	if g.Tier(3) != TierFull || g.Tier(5) != TierFull || g.TierCounts()[TierFull] != 2 {
		t.Fatalf("after shedding every cold flow: tiers of 3, 5 = %v, %v; counts %v, want only 3 and 5 full",
			g.Tier(3), g.Tier(5), g.TierCounts())
	}
	// Park everything, then recover: the hot flows must come back first.
	for i := 0; i < 400; i++ {
		g.Tick(high)
	}
	var first []int
	for i := 0; i < 100 && len(first) < 2; i++ {
		for _, x := range g.Tick(low) {
			first = append(first, x.Flow)
		}
	}
	if len(first) < 2 || !isHot(first[0]) || !isHot(first[1]) {
		t.Fatalf("first promotions = %v, want the hot flows 3 and 5", first)
	}
}

func isHot(f int) bool { return f == 3 || f == 5 }

func TestGovernorNeverLeavesLadder(t *testing.T) {
	g := New(testConfig(), 4)
	for i := 0; i < 200; i++ {
		g.Tick(high)
	}
	counts := g.TierCounts()
	if counts[TierParked] != 4 {
		t.Fatalf("sustained overload should park everyone: %v", counts)
	}
	// Parked flows are terminal for demotion — more pressure is a no-op.
	if tr := g.Tick(high); len(tr) != 0 {
		t.Fatalf("parked fleet still produced transitions: %v", tr)
	}
	for i := 0; i < 200; i++ {
		g.Tick(low)
	}
	if got := g.TierCounts()[TierFull]; got != 4 {
		t.Fatalf("sustained recovery should restore everyone: %v", g.TierCounts())
	}
	if tr := g.Tick(low); len(tr) != 0 {
		t.Fatalf("fully restored fleet still produced transitions: %v", tr)
	}
}

func TestGovernorDeterministicAcrossRuns(t *testing.T) {
	run := func() []Transition {
		g := New(testConfig(), 48)
		g.SetHot(7, true)
		var all []Transition
		for i := 0; i < 120; i++ {
			var u Usage
			switch {
			case i%30 < 12:
				u = high
			case i%30 < 20:
				u = mid
			default:
				u = low
			}
			all = append(all, g.Tick(u)...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transition %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("trajectory produced no transitions; test is vacuous")
	}
}

func TestGovernorResumeWithTiers(t *testing.T) {
	start := []Tier{TierFull, TierSketch, TierParked, TierCounters, 200}
	g := NewWithTiers(testConfig(), start)
	want := [NumTiers]int{1, 1, 1, 2} // the out-of-range tier clamps to parked
	if got := g.TierCounts(); got != want {
		t.Fatalf("resumed counts = %v, want %v", got, want)
	}
	if g.Tier(4) != TierParked {
		t.Fatalf("out-of-range tier = %v, want parked", g.Tier(4))
	}
	// Promotion restores the most-degraded flow first.
	tr := g.Tick(low)
	if len(tr) != 1 || tr[0].From != TierParked {
		t.Fatalf("first resume promotion = %+v, want from parked", tr)
	}
}

func TestGovernorLiveFullBudget(t *testing.T) {
	cfg := Config{Budgets: Budgets{LiveFull: 4}, HoldTicks: 2, Seed: 7}
	g := New(cfg, 8)
	// 8 live full monitors against a budget of 4: pressure 2.0 from the
	// governor's own tier census, no external usage needed.
	for i := 0; i < 100; i++ {
		g.Tick(Usage{})
	}
	// Demotion stops once 4/4 = 1.0 no longer exceeds HighWater, and
	// 1.0 ≥ LowWater keeps the survivors in the deadband: the census
	// settles exactly at the budget, with no flapping around it.
	if got := g.TierCounts()[TierFull]; got != 4 {
		t.Fatalf("full count settled at %d, want the LiveFull budget 4", got)
	}
	if p := g.Pressure(Usage{}); p != 1.0 {
		t.Fatalf("settled pressure = %v, want exactly 1.0", p)
	}
}
