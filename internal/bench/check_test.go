package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Pure comparison tests for the bench-check regression gate: floors on
// higher-is-better metrics, ceilings (with absolute grace) on latency.

func TestCheckFloorAndCeiling(t *testing.T) {
	if c := checkFloor("qps", 1000, 801, 0.2); !c.Pass {
		t.Fatalf("801 vs 1000 at 20%% tolerance must pass: %+v", c)
	}
	if c := checkFloor("qps", 1000, 799, 0.2); c.Pass {
		t.Fatalf("799 vs 1000 at 20%% tolerance must fail: %+v", c)
	}
	// Ceiling: limit = committed×1.2 + 3ms grace.
	if c := checkCeiling("p99", 10, 14.9, 0.2); !c.Pass {
		t.Fatalf("14.9ms vs 10ms (limit 15ms) must pass: %+v", c)
	}
	if c := checkCeiling("p99", 10, 15.1, 0.2); c.Pass {
		t.Fatalf("15.1ms vs 10ms (limit 15ms) must fail: %+v", c)
	}
}

func TestEvaluateChecksAndReportString(t *testing.T) {
	committed := &ThroughputReport{Mux: ThroughputResult{QPS: 1200, P99Ms: 12}}
	current := &ThroughputReport{Mux: ThroughputResult{QPS: 1100, P99Ms: 13}}
	results := EvaluateThroughputCheck(committed, current, 0.2)
	if len(results) != 2 || !results[0].Pass || !results[1].Pass {
		t.Fatalf("mild drift flagged as regression: %+v", results)
	}

	cs := &ServeBenchReport{Gateway: ServeBenchResult{Load: Load{GoodputQPS: 8000, P99Ms: 30}}}
	cur := &ServeBenchReport{Gateway: ServeBenchResult{Load: Load{GoodputQPS: 100, P99Ms: 300}}}
	sresults := EvaluateServeCheck(cs, cur, 0.2)
	if sresults[0].Pass || sresults[1].Pass {
		t.Fatalf("collapse not flagged: %+v", sresults)
	}

	report := &CheckReport{Tolerance: 0.2, Results: append(results, sresults...)}
	report.Pass = false
	s := report.String()
	if !strings.Contains(s, "REGRESSED") || !strings.Contains(s, "FAIL") {
		t.Fatalf("report string hides the regression:\n%s", s)
	}
}

func TestRunBenchCheckNeedsArtifacts(t *testing.T) {
	if _, err := RunBenchCheck(CheckConfig{}); err == nil {
		t.Fatal("no artifact paths must be an error, not a silent pass")
	}
	if _, err := RunBenchCheck(CheckConfig{ThroughputPath: "does/not/exist.json"}); err == nil {
		t.Fatal("a missing artifact must be an error")
	}
}

func TestEvaluateCacheCheck(t *testing.T) {
	committed := &CacheBenchReport{
		Cached:  CacheBenchResult{Load: Load{GoodputQPS: 20000, P99Ms: 3}},
		Speedup: 2.3,
	}
	// Mild drift: goodput -5%, p99 noise within the widened grace, speedup flat.
	cur := &CacheBenchReport{
		Cached:  CacheBenchResult{Load: Load{GoodputQPS: 19000, P99Ms: 9}},
		Speedup: 2.2,
	}
	results := EvaluateCacheCheck(committed, cur, 0.2)
	if len(results) != 3 {
		t.Fatalf("want 3 compared metrics, got %+v", results)
	}
	for _, c := range results {
		if !c.Pass {
			t.Fatalf("mild drift flagged as regression: %+v", c)
		}
	}

	// A cache degraded to a pass-through: absolute goodput might still sit
	// inside tolerance of a low baseline, but the speedup floor must trip.
	flat := &CacheBenchReport{
		Cached:  CacheBenchResult{Load: Load{GoodputQPS: 20000, P99Ms: 3}},
		Speedup: 1.0,
	}
	results = EvaluateCacheCheck(committed, flat, 0.2)
	if results[2].Pass {
		t.Fatalf("speedup collapse 2.3 -> 1.0 must fail: %+v", results[2])
	}
}

// missingKeys lists every object key of file (by path) that back lacks at
// the same nesting; array elements are compared pairwise.
func missingKeys(path string, file, back any) []string {
	var missing []string
	switch f := file.(type) {
	case map[string]any:
		b, _ := back.(map[string]any)
		for k, v := range f {
			if bv, ok := b[k]; ok {
				missing = append(missing, missingKeys(path+"."+k, v, bv)...)
			} else {
				missing = append(missing, path+"."+k)
			}
		}
	case []any:
		b, _ := back.([]any)
		for i, v := range f {
			if i >= len(b) {
				return append(missing, fmt.Sprintf("%s[%d]", path, i))
			}
			missing = append(missing, missingKeys(fmt.Sprintf("%s[%d]", path, i), v, b[i])...)
		}
	}
	return missing
}

// TestCommittedArtifactSchemas holds the report types to the committed live
// artifacts: each file unmarshals into its type, and every key the file
// carries comes back under the same name and nesting when the value is
// marshalled again. New keys are allowed; renaming or moving one is not —
// bench-check reads these files with these types.
func TestCommittedArtifactSchemas(t *testing.T) {
	for name, report := range map[string]any{
		"throughput": &ThroughputReport{},
		"serve":      &ServeBenchReport{},
		"cache":      &CacheBenchReport{},
		"soak":       &SoakReport{},
		"fleet":      &FleetReport{},
	} {
		raw, err := os.ReadFile("../../BENCH_" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var file, back any
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := json.Unmarshal(raw, report); err != nil {
			t.Fatalf("%s does not fit %T: %v", name, report, err)
		}
		again, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatal(err)
		}
		if missing := missingKeys(name, file, back); len(missing) > 0 {
			t.Errorf("%T no longer emits keys the committed artifact carries: %v", report, missing)
		}
	}
}
