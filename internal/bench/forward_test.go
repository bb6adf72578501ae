package bench

import (
	"strings"
	"testing"
	"time"
)

// TestRunForwardBenchSmoke runs the full zoo at a tiny window and checks the
// artifact invariants the regression gate relies on: every family present,
// a measured peak, positive rates and shares on both engines, and the
// snapshot's zero-allocation steady state. On a machine with no measurable
// peak the run must fail instead.
func TestRunForwardBenchSmoke(t *testing.T) {
	report, err := RunForwardBench(ForwardBenchConfig{Batch: 4, Duration: 20 * time.Millisecond})
	if machinePeak() <= 0 {
		if err == nil {
			t.Fatal("a machine with no measurable peak passed the forward bench")
		}
		return
	}
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
		if m.PeakGFLOPS <= 0 || m.SnapshotRowsPerSec <= 0 || m.TrainRowsPerSec <= 0 || m.SnapshotPeakPct <= 0 || m.TrainPeakPct <= 0 {
			t.Fatalf("%s: non-positive peak, rate or share: %+v", m.Model, m)
		}
		if m.Params <= 0 || m.FLOPsPerRow <= 0 {
			t.Fatalf("%s: missing param or FLOP count", m.Model)
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

// TestEvaluateForwardCheck exercises the pure comparison: both shares of the
// peak floored at tolerance whatever the absolute throughput, the
// allocation invariant exactly, and a model missing from the re-run failing
// rather than silently passing. Each failing case fails alone.
func TestEvaluateForwardCheck(t *testing.T) {
	committed := &ForwardReport{Batch: 16, Results: []ForwardResult{
		{Model: "MLP-8", SnapshotRowsPerSec: 1000, SnapshotPeakPct: 40, TrainPeakPct: 10},
		{Model: "SS-8", SnapshotRowsPerSec: 500, SnapshotPeakPct: 60, TrainPeakPct: 20},
	}}
	// A host at a third of the committed throughput, both shares less 10%.
	passing := ForwardResult{Model: "MLP-8", SnapshotRowsPerSec: 330, SnapshotPeakPct: 36, TrainPeakPct: 9}
	verdicts := func(cur ForwardResult) map[string]bool {
		got := map[string]bool{}
		for _, r := range EvaluateForwardCheck(committed, &ForwardReport{Results: []ForwardResult{cur}}, 0.20) {
			got[r.Name] = r.Pass
		}
		return got
	}
	got := verdicts(passing)
	for _, name := range []string{"forward.MLP-8.snapshot_peak_pct", "forward.MLP-8.train_peak_pct", "forward.MLP-8.allocs_per_op"} {
		if !got[name] {
			t.Fatalf("%s failed on a 10%% dip against a 20%% floor: %v", name, got)
		}
	}
	if pass, ok := got["forward.SS-8.snapshot_peak_pct"]; !ok || pass {
		t.Fatalf("missing model must fail: %v %v", ok, pass)
	}

	for _, c := range []struct {
		fails string
		cur   func(*ForwardResult)
	}{
		{"forward.MLP-8.snapshot_peak_pct", func(r *ForwardResult) { r.SnapshotPeakPct = 31.9 }},
		{"forward.MLP-8.train_peak_pct", func(r *ForwardResult) { r.TrainPeakPct = 7.9 }},
		{"forward.MLP-8.allocs_per_op", func(r *ForwardResult) { r.SnapshotAllocsPerOp = 1 }},
	} {
		cur := passing
		c.cur(&cur)
		for name, pass := range verdicts(cur) {
			if want := name != c.fails && name != "forward.SS-8.snapshot_peak_pct"; pass != want {
				t.Fatalf("with %s off its floor: %s pass = %v, want %v", c.fails, name, pass, want)
			}
		}
	}
}
