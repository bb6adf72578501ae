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
	if c := checkCeilingGrace("p99", 10, 14.9, 0.2, 3); !c.Pass {
		t.Fatalf("14.9ms vs 10ms (limit 15ms) must pass: %+v", c)
	}
	if c := checkCeilingGrace("p99", 10, 15.1, 0.2, 3); c.Pass {
		t.Fatalf("15.1ms vs 10ms (limit 15ms) must fail: %+v", c)
	}
}

func TestEvaluateChecksAndReportString(t *testing.T) {
	committed := &FleetReport{ScalingX: 3.6, Scales: []FleetScale{{Pairs: 4, Load: Load{GoodputQPS: 1440}}}}
	current := &FleetReport{ScalingX: 3.4, Scales: []FleetScale{{Pairs: 4, Load: Load{GoodputQPS: 1350}}}}
	results := EvaluateFleetCheck(committed, current, 0.2)
	for _, c := range results {
		if !c.Pass {
			t.Fatalf("mild drift flagged as regression: %+v", c)
		}
	}

	cf := &ForwardReport{Results: []ForwardResult{{Model: "MLP-8", SnapshotPeakPct: 40, TrainPeakPct: 10}}}
	cur := &ForwardReport{Results: []ForwardResult{{Model: "MLP-8", SnapshotPeakPct: 5, TrainPeakPct: 1, SnapshotAllocsPerOp: 3}}}
	fresults := EvaluateForwardCheck(cf, cur, 0.2)
	if len(fresults) != 3 || fresults[0].Pass || fresults[1].Pass || fresults[2].Pass {
		t.Fatalf("collapse not flagged: %+v", fresults)
	}

	report := &CheckReport{Tolerance: 0.2, Results: append(results, fresults...)}
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
	if _, err := RunBenchCheck(CheckConfig{FleetPath: "does/not/exist.json"}); err == nil {
		t.Fatal("a missing artifact must be an error")
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

// TestCommittedArtifactSchemas holds the report types to the committed
// artifacts: each file unmarshals into its type, and every key the file
// carries comes back under the same name and nesting when the value is
// marshalled again. New keys are allowed; renaming or moving one is not —
// bench-check reads these files with these types.
func TestCommittedArtifactSchemas(t *testing.T) {
	for name, report := range map[string]any{
		"soak":    &SoakReport{},
		"fleet":   &FleetReport{},
		"forward": &ForwardReport{},
		"split":   &SplitReport{},
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
