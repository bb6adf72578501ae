package bench

import (
	"strings"
	"testing"
	"time"
)

// TestRunForwardBenchSmoke runs the full zoo at a tiny window and checks the
// artifact invariants the regression gate relies on: every family present,
// positive throughput on both engines, and the snapshot's zero-allocation
// steady state.
func TestRunForwardBenchSmoke(t *testing.T) {
	report, err := RunForwardBench(ForwardBenchConfig{Batch: 4, Duration: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if report.Batch != 4 {
		t.Fatalf("batch not recorded: %+v", report)
	}
	want := map[string]bool{"MLP-8": false, "MLP-4": false, "MLP-2": false, "SS-26": false, "SS-14": false, "SS-8": false}
	for _, m := range report.Results {
		if _, ok := want[m.Model]; !ok {
			t.Fatalf("unexpected model %q", m.Model)
		}
		want[m.Model] = true
		if m.NetworkRowsPerSec <= 0 || m.SnapshotRowsPerSec <= 0 {
			t.Fatalf("%s: non-positive throughput: %+v", m.Model, m)
		}
		if m.Params <= 0 {
			t.Fatalf("%s: missing param count", m.Model)
		}
		if m.SnapshotAllocsPerOp != 0 && !raceDetectorEnabled {
			t.Fatalf("%s: snapshot forward allocates %.0f allocs/op, want 0", m.Model, m.SnapshotAllocsPerOp)
		}
	}
	for model, seen := range want {
		if !seen {
			t.Fatalf("zoo model %s missing from report", model)
		}
	}
	if !strings.Contains(report.String(), "MLP-8") {
		t.Fatalf("report text missing models:\n%s", report)
	}
}

// TestEvaluateForwardCheck exercises the pure comparison: speedup floors at
// tolerance whatever the absolute throughput, the allocation invariant
// exactly, and a model missing from the re-run failing rather than silently
// passing.
func TestEvaluateForwardCheck(t *testing.T) {
	committed := &ForwardReport{Batch: 16, Results: []ForwardResult{
		{Model: "MLP-8", SnapshotRowsPerSec: 1000, Speedup: 2, SnapshotAllocsPerOp: 0},
		{Model: "SS-8", SnapshotRowsPerSec: 500, Speedup: 4, SnapshotAllocsPerOp: 0},
	}}
	// A host at a third of the committed throughput, same speedup less 10%.
	current := &ForwardReport{Batch: 16, Results: []ForwardResult{
		{Model: "MLP-8", SnapshotRowsPerSec: 330, Speedup: 1.8, SnapshotAllocsPerOp: 0},
	}}
	results := EvaluateForwardCheck(committed, current, 0.20)
	got := map[string]bool{}
	for _, r := range results {
		got[r.Name] = r.Pass
	}
	if !got["forward.MLP-8.speedup"] {
		t.Fatal("10% speedup dip on a slower host failed a 20% floor")
	}
	if !got["forward.MLP-8.allocs_per_op"] {
		t.Fatal("zero allocs failed the invariant")
	}
	if pass, ok := got["forward.SS-8.speedup"]; !ok || pass {
		t.Fatalf("missing model must fail: %v %v", ok, pass)
	}

	// A regressed floor and a single alloc both fail.
	current.Results[0].Speedup = 1.5
	current.Results[0].SnapshotAllocsPerOp = 1
	for _, r := range EvaluateForwardCheck(committed, current, 0.20) {
		switch r.Name {
		case "forward.MLP-8.speedup", "forward.MLP-8.allocs_per_op":
			if r.Pass {
				t.Fatalf("%s passed, want fail", r.Name)
			}
		}
	}
}
