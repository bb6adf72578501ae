package bench

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// smokeFleet runs the CI-sized fleet drill once per test binary: 2
// gateway/master pairs in-process, every worker link behind a chaos proxy,
// the whole timeline — stall, reset, heal, wire hot-swap — in seconds.
// TestSoakSmoke and TestFleetSmoke read the same run.
var smokeFleet = sync.OnceValues(func() (*FleetReport, error) {
	return RunFleetBench(FleetConfig{
		PairQPS:  150,
		Duration: 5 * time.Second,
		Deadline: 250 * time.Millisecond,
		Scales:   []int{2},
	})
})

// smokeScale returns the smoke drill's one scale, failing t if the drill
// did not run or did not offer and complete load.
func smokeScale(t *testing.T) (*FleetReport, FleetScale) {
	t.Helper()
	report, err := smokeFleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Scales) != 1 {
		t.Fatalf("%d scales, want 1", len(report.Scales))
	}
	s := report.Scales[0]
	if s.Offered == 0 || s.Completed == 0 {
		t.Fatalf("fleet offered %d / completed %d", s.Offered, s.Completed)
	}
	return report, s
}

// TestSoakSmoke holds the smoke drill's stall/reset/heal acts to the
// SLO-defense verdict, read over the drill's intervals.
func TestSoakSmoke(t *testing.T) {
	report, s := smokeScale(t)
	t.Logf("\n%s", report)

	if len(s.Intervals) != fleetIntervals {
		t.Fatalf("%d intervals, want %d", len(s.Intervals), fleetIntervals)
	}
	// The headline defense claim: faults thin answers, they never stop them.
	if s.ZeroGoodputIntervals != 0 {
		t.Fatalf("%d intervals with zero goodput", s.ZeroGoodputIntervals)
	}
	// The stall and reset acts reach a worker: partial-ensemble answers.
	if s.Degraded == 0 {
		t.Fatal("no degraded answers across a stall+reset timeline")
	}
	// Races where both arms fail settle as neither won nor wasted, so the
	// split can only undershoot fired — never exceed it.
	if s.HedgeWon+s.HedgeWasted > s.HedgeFired {
		t.Fatalf("hedge accounting leak: fired=%d won=%d wasted=%d", s.HedgeFired, s.HedgeWon, s.HedgeWasted)
	}
	// Final-interval tails back near the healthy baseline after the heal.
	if !s.Recovered {
		t.Fatalf("tail latency never recovered after heal: baseline p99 %.2fms, final %.2fms", s.BaselineP99Ms, s.FinalP99Ms)
	}
}

// TestFleetSmoke holds the smoke drill's wire hot-swap to the swap
// invariants the full bench-fleet artifact gates, and the report to its
// JSON round trip.
func TestFleetSmoke(t *testing.T) {
	report, s := smokeScale(t)

	// The swap verdict: the rollout hard-fails nothing...
	if s.Swap.FailedRequests != 0 {
		t.Fatalf("%d hard-failed requests across the drill", s.Swap.FailedRequests)
	}
	// ...every tier agrees on the new version...
	if s.Swap.Version != "vB" {
		t.Fatal("fleet did not converge on vB after the hot-swap")
	}
	// ...each gateway purged exactly once (the vA→vB cutover), and no
	// version-A entry survived anywhere — the versioned-put guard's claim.
	if s.Swap.Invalidations != 2 {
		t.Fatalf("invalidations = %d across 2 gateways, want 2", s.Swap.Invalidations)
	}
	if s.Swap.StaleEntries != 0 {
		t.Fatalf("%d stale-version cache entries after cutover", s.Swap.StaleEntries)
	}

	// Every interval splits the masters' requests among its pair masters.
	for _, iv := range s.Intervals {
		sum := 0.0
		for _, share := range iv.MasterShare {
			sum += share
		}
		if len(iv.MasterShare) != s.Pairs || math.Abs(sum-1) > 1e-9 {
			t.Fatalf("interval at %.1fs: master_share %v, want %d shares summing to 1", iv.T0Sec, iv.MasterShare, s.Pairs)
		}
	}

	// The report must round-trip to JSON (it is the BENCH_fleet.json payload).
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var back FleetReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Scales) != 1 || back.Scales[0].Swap.Version != "vB" || len(back.Scales[0].Intervals) != fleetIntervals {
		t.Fatal("swap outcome or intervals lost in the JSON round trip")
	}
}

// TestEvaluateFleetCheck pins the fleet gate's semantics: relative floors
// on goodput and scaling, exact zeros on the drill's verdicts.
func TestEvaluateFleetCheck(t *testing.T) {
	scale := func(pairs int, goodput float64) FleetScale {
		return FleetScale{Pairs: pairs, Load: Load{GoodputQPS: goodput}, Recovered: true, Swap: FleetSwap{Version: "vB"}}
	}
	report := func(scaling float64, scales ...FleetScale) *FleetReport {
		return &FleetReport{ScalingX: scaling, Scales: scales}
	}
	committed := report(3.6, scale(1, 400), scale(4, 1440))
	for _, c := range EvaluateFleetCheck(committed, report(3.3, scale(1, 390), scale(4, 1300)), 0.20) {
		if !c.Pass {
			t.Fatalf("%s failed within tolerance: committed %.2f current %.2f limit %.2f",
				c.Name, c.Committed, c.Current, c.Limit)
		}
	}

	// Scaling collapse past tolerance fails the relative floor.
	failed := 0
	for _, c := range EvaluateFleetCheck(committed, report(2.0, scale(1, 400), scale(4, 800)), 0.20) {
		if !c.Pass {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("scaling collapse passed the fleet gate")
	}

	// One hard-failed request, stale entry, split version, zero-goodput
	// interval or unrecovered scale — at any scale, the smallest included —
	// fails at ANY tolerance: the verdicts are exact, not relative.
	for name, spoil := range map[string]func(*FleetScale){
		"fleet.swap.failed_requests":   func(s *FleetScale) { s.Swap.FailedRequests = 1 },
		"fleet.swap.stale_entries":     func(s *FleetScale) { s.Swap.StaleEntries = 1 },
		"fleet.swap.split_versions":    func(s *FleetScale) { s.Swap.Version = "" },
		"fleet.zero_goodput_intervals": func(s *FleetScale) { s.ZeroGoodputIntervals = 1 },
		"fleet.unrecovered_scales":     func(s *FleetScale) { s.Recovered = false },
	} {
		dirty := report(3.6, scale(1, 400), scale(4, 1440))
		spoil(&dirty.Scales[0])
		found := false
		for _, c := range EvaluateFleetCheck(committed, dirty, 10.0) {
			if c.Name == name {
				found = true
				if c.Pass {
					t.Errorf("%s passed the gate at 1 against a limit of 0", name)
				}
			} else if !c.Pass {
				t.Errorf("spoiling %s also failed %s", name, c.Name)
			}
		}
		if !found {
			t.Errorf("the fleet gate has no %s result", name)
		}
	}
}
