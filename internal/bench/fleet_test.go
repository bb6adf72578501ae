package bench

import (
	"encoding/json"
	"testing"
	"time"
)

// TestFleetSmoke is the CI-sized fleet drill: 2 gateway/master pairs
// in-process, every worker link behind a chaos proxy (one of which stalls
// mid-run), and one scripted wire hot-swap. It pins the two swap
// invariants the full bench-fleet artifact gates — no hard-failed
// requests, no stale-version cache entries — at smoke scale.
func TestFleetSmoke(t *testing.T) {
	cfg := FleetConfig{
		PairQPS:  150,
		Duration: 4 * time.Second,
		Deadline: 250 * time.Millisecond,
		Scales:   []int{2},
	}
	report, err := RunFleetBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)

	if len(report.Scales) != 1 {
		t.Fatalf("%d scales, want 1", len(report.Scales))
	}
	s := report.Scales[0]
	if s.Offered == 0 || s.Completed == 0 {
		t.Fatalf("fleet offered %d / completed %d", s.Offered, s.Completed)
	}
	// The swap verdict: the rollout hard-fails nothing...
	if s.Swap.FailedRequests != 0 {
		t.Fatalf("%d hard-failed requests across the hot-swap run", s.Swap.FailedRequests)
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

	// The report must round-trip to JSON (it is the BENCH_fleet.json payload).
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var back FleetReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Scales) != 1 || back.Scales[0].Swap.Version != "vB" {
		t.Fatal("swap outcome lost in the JSON round trip")
	}
}

// TestEvaluateFleetCheck pins the fleet gate's semantics: relative floors
// on goodput and scaling, exact zeros on the swap outcome.
func TestEvaluateFleetCheck(t *testing.T) {
	committed := &FleetReport{
		ScalingX: 3.6,
		Scales: []FleetScale{
			{Pairs: 1, Load: Load{GoodputQPS: 400}},
			{Pairs: 4, Load: Load{GoodputQPS: 1440}, Swap: FleetSwap{}},
		},
	}
	pass := &FleetReport{
		ScalingX: 3.3,
		Scales: []FleetScale{
			{Pairs: 1, Load: Load{GoodputQPS: 390}},
			{Pairs: 4, Load: Load{GoodputQPS: 1300}, Swap: FleetSwap{}},
		},
	}
	for _, c := range EvaluateFleetCheck(committed, pass, 0.20) {
		if !c.Pass {
			t.Fatalf("%s failed within tolerance: committed %.2f current %.2f limit %.2f",
				c.Name, c.Committed, c.Current, c.Limit)
		}
	}

	// Scaling collapse past tolerance fails the relative floor.
	collapsed := &FleetReport{
		ScalingX: 2.0,
		Scales: []FleetScale{
			{Pairs: 1, Load: Load{GoodputQPS: 400}},
			{Pairs: 4, Load: Load{GoodputQPS: 800}},
		},
	}
	results := EvaluateFleetCheck(committed, collapsed, 0.20)
	failed := 0
	for _, c := range results {
		if !c.Pass {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("scaling collapse passed the fleet gate")
	}

	// A single hard-failed request or stale entry fails at ANY tolerance —
	// the swap invariants are exact, not relative.
	dirty := &FleetReport{
		ScalingX: 3.6,
		Scales: []FleetScale{
			{Pairs: 1, Load: Load{GoodputQPS: 400}},
			{Pairs: 4, Load: Load{GoodputQPS: 1440}, Swap: FleetSwap{FailedRequests: 1, StaleEntries: 1}},
		},
	}
	byName := map[string]CheckResult{}
	for _, c := range EvaluateFleetCheck(committed, dirty, 10.0) {
		byName[c.Name] = c
	}
	if byName["fleet.swap.failed_requests"].Pass {
		t.Fatal("a hard-failed swap request passed the gate")
	}
	if byName["fleet.swap.stale_entries"].Pass {
		t.Fatal("a stale cache entry passed the gate")
	}
}
