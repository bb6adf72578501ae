package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs one short round of every workload, plus its traced round
// and probes, against real fleets, and holds the result to the contract:
// every metric BENCHMARK.json names is reported with a finite value, nothing
// failed, and each workload exercised what it is meant to. Timings are not
// asserted; the windows are far too short for that.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts process fleets; skipped with -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if sp.Workloads[i].Name != wl.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, sp.Workloads[i].Name, wl.name)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	e, err := prepare(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 1, workloads: workloads, warm: time.Second, window: time.Second, rounds: 1, traced: true}
	outs, err := run(ctx, e, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, traced := range []bool{false, true} {
		cfg.traced = traced
		var report bytes.Buffer
		res, err := printReport(&report, sp, cfg, outs)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(report.String())
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("correct %v, %d failed of %d attempted", res.Correct, res.Failed, res.Attempted)
		}
		// The result line is the report's last line and round-trips.
		lines := strings.Split(strings.TrimSpace(report.String()), "\n")
		var line result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("result line: %v", err)
		}
		want := sp.EndToEnd
		if traced {
			want = sp.PerLayer
		}
		if len(line.Metrics) != len(want)*len(workloads) {
			t.Errorf("traced=%v: %d metrics on the result line, want %d × %d", traced, len(line.Metrics), len(want), len(workloads))
		}
		for _, wl := range workloads {
			for _, ms := range want {
				mv, ok := line.Metrics[wl.name+"."+ms.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", wl.name, ms.Name)
				case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("%s: metric %s is %v", wl.name, ms.Name, mv.Value)
				case mv.Unit != ms.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", wl.name, ms.Name, mv.Unit, ms.Unit)
				case !traced && mv.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", wl.name, ms.Name, mv.Value)
				}
			}
		}
	}
}

// TestInputsFollowSeed pins the input contract: a row is a pure function of
// (seed, id), the rendered body parses back to exactly the values the oracle
// rebuilds, and another seed gives other rows.
func TestInputsFollowSeed(t *testing.T) {
	const features, rows = 784, 3
	body := appendBody(nil, make([]byte, features), 7, freshID(1, 0, 5, rows), rows)
	again := appendBody(nil, make([]byte, features), 7, freshID(1, 0, 5, rows), rows)
	other := appendBody(nil, make([]byte, features), 8, freshID(1, 0, 5, rows), rows)
	if !bytes.Equal(body, again) {
		t.Error("the same seed and id rendered two different bodies")
	}
	if bytes.Equal(body, other) {
		t.Error("seeds 7 and 8 rendered the same body")
	}
	var parsed struct {
		X [][]float64 `json:"x"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, rows*features)
	rowValues(want, 7, freshID(1, 0, 5, rows), features)
	for r, row := range parsed.X {
		for i, v := range row {
			if v != want[r*features+i] {
				t.Fatalf("row %d feature %d: body says %v, rowValues %v", r, i, v, want[r*features+i])
			}
		}
	}
	a, b := idStream(workloads[2], 7, 0, 0), idStream(workloads[2], 7, 0, 0)
	for i := 0; i < 100; i++ {
		if x, y := a(), b(); x != y || x >= zipfKeys {
			t.Fatalf("zipf draw %d: %d vs %d (key space %d)", i, x, y, zipfKeys)
		}
	}
}
