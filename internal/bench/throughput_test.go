package bench

import (
	"encoding/json"
	"testing"
	"time"
)

// TestRunThroughputSmoke runs a miniature serial-vs-mux comparison: both
// modes must complete queries and produce a well-formed, JSON-serializable
// report. The ≥3x acceptance speedup is asserted by the bench-throughput
// make target at real duration, not here — a 150ms CI window is too noisy
// to gate on a ratio.
func TestRunThroughputSmoke(t *testing.T) {
	report, err := RunThroughput(ThroughputConfig{
		Clients:  4,
		Batch:    2,
		Duration: 150 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []ThroughputResult{report.Serial, report.Mux} {
		if m.Queries == 0 || m.QPS <= 0 {
			t.Fatalf("%s mode completed no queries: %+v", m.Mode, m)
		}
		if m.P50Ms <= 0 || m.P99Ms < m.P50Ms {
			t.Fatalf("%s mode has nonsensical percentiles: %+v", m.Mode, m)
		}
	}
	// What the baseline exists to show: with one request on the link at a
	// time, throughput cannot exceed one per round trip of the injected delay.
	if bound := 1000 / (2 * report.NetDelayMs) * 1.1; report.Serial.QPS > bound {
		t.Fatalf("serial mode ran %.0f qps over a %.0fms one-way link; one-in-flight is capped at %.0f", report.Serial.QPS, report.NetDelayMs, bound)
	}
	if report.Speedup <= 0 {
		t.Fatalf("speedup %v not computed", report.Speedup)
	}
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var back ThroughputReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Mux.Queries != report.Mux.Queries {
		t.Fatal("report did not round-trip through JSON")
	}
}
