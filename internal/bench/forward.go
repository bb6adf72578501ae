package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Compute-kernel benchmark: the acceptance harness for the batch-throughput
// forward pass. Where the soak and fleet benchmarks measure the wire, this
// one measures the matmul under it: every model family in the zoo runs a
// fixed-size batch through both inference engines — the training Network
// (one mutable activation cache, the engine the replica pool used to clone)
// and the frozen Snapshot (shared weights, pooled scratch arenas, the engine
// the cluster serves from) — and reports sustained rows/second for each plus the snapshot's
// steady-state heap allocations per forward pass.
//
// The allocation count is the load-bearing number: the snapshot's arena
// design promises ZERO allocations per forward once warm (DESIGN.md §10),
// which is what keeps the garbage collector out of the serving tail. The
// regression gate (EvaluateForwardCheck) therefore pins it as an exact
// invariant, not a tolerance band — one alloc is a regression.

// ForwardBenchConfig sizes one forward-pass comparison. Zero fields take
// the defaults (batch 16 — the gateway's coalesced batch size — 300ms
// measured window per model per engine, seed 42).
type ForwardBenchConfig struct {
	Batch    int           // rows per forward pass
	Duration time.Duration // measured window per model per engine
	Seed     int64
}

func (c ForwardBenchConfig) normalized() ForwardBenchConfig {
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.Duration <= 0 {
		c.Duration = 300 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ForwardResult is one model's measured comparison.
type ForwardResult struct {
	Model               string  `json:"model"`
	Params              int     `json:"params"`
	NetworkRowsPerSec   float64 `json:"network_rows_per_sec"`
	SnapshotRowsPerSec  float64 `json:"snapshot_rows_per_sec"`
	Speedup             float64 `json:"speedup"`                // snapshot over network
	SnapshotAllocsPerOp float64 `json:"snapshot_allocs_per_op"` // steady-state heap allocations per ForwardInto
}

// ForwardReport is the full artifact, written to BENCH_forward.json.
type ForwardReport struct {
	Batch       int             `json:"batch"`
	DurationSec float64         `json:"duration_sec"` // per model per engine
	Results     []ForwardResult `json:"results"`
}

func (r *ForwardReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "forward: %d-row batches, %.2fs measured per model per engine\n", r.Batch, r.DurationSec)
	fmt.Fprintf(&b, "  %-8s %10s %14s %14s %8s %10s\n", "model", "params", "net rows/s", "snap rows/s", "speedup", "allocs/op")
	for _, m := range r.Results {
		fmt.Fprintf(&b, "  %-8s %10d %14.0f %14.0f %7.2fx %10.0f\n",
			m.Model, m.Params, m.NetworkRowsPerSec, m.SnapshotRowsPerSec, m.Speedup, m.SnapshotAllocsPerOp)
	}
	return strings.TrimRight(b.String(), "\n")
}

// forwardZooSpecs returns every model family the paper evaluates, at the
// test-scale geometry the rest of the benchmark suite uses (64-pixel
// digits, 3×8×8 objects, 10 classes).
func forwardZooSpecs() ([]nn.Spec, error) {
	specs := []nn.Spec{nn.DigitsBaseline(64, 10)}
	for _, k := range []int{2, 4} {
		s, err := nn.DigitsExpert(k, 64, 10)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	specs = append(specs, nn.ObjectsBaseline(3, 8, 8, 10))
	for _, k := range []int{2, 4} {
		s, err := nn.ObjectsExpert(k, 3, 8, 8, 10)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// forwardInputWidth infers the input width a spec's network expects.
func forwardInputWidth(s nn.Spec) int {
	if s.MLP != nil {
		return s.MLP.Input
	}
	return s.Shake.InC * s.Shake.InH * s.Shake.InW
}

// RunForwardBench measures every zoo model on both engines.
func RunForwardBench(cfg ForwardBenchConfig) (*ForwardReport, error) {
	cfg = cfg.normalized()
	specs, err := forwardZooSpecs()
	if err != nil {
		return nil, err
	}
	report := &ForwardReport{Batch: cfg.Batch, DurationSec: cfg.Duration.Seconds()}
	rng := tensor.NewRNG(cfg.Seed)
	for i, spec := range specs {
		net, err := spec.Build(rng.Split(int64(i)))
		if err != nil {
			return nil, fmt.Errorf("bench: build %s: %w", spec.Label(), err)
		}
		x := rng.Randn(cfg.Batch, forwardInputWidth(spec))
		net.Forward(x, true) // populate batch-norm running statistics
		snap, err := nn.NewSnapshot(net)
		if err != nil {
			return nil, fmt.Errorf("bench: snapshot %s: %w", spec.Label(), err)
		}
		res := ForwardResult{Model: spec.Label(), Params: net.ParamCount()}
		res.NetworkRowsPerSec = measureRowsPerSec(cfg.Duration, cfg.Batch, func() {
			net.Forward(x, false)
		})
		out := snap.Forward(x) // sized destination; also warms the arena pool
		res.SnapshotRowsPerSec = measureRowsPerSec(cfg.Duration, cfg.Batch, func() {
			snap.ForwardInto(out, x)
		})
		if res.NetworkRowsPerSec > 0 {
			res.Speedup = res.SnapshotRowsPerSec / res.NetworkRowsPerSec
		}
		res.SnapshotAllocsPerOp = testing.AllocsPerRun(5, func() {
			snap.ForwardInto(out, x)
		})
		report.Results = append(report.Results, res)
	}
	return report, nil
}

// measureRowsPerSec runs f (one batch forward) in a closed loop for roughly
// the window and returns sustained rows/second. One untimed call warms
// caches and pools first.
func measureRowsPerSec(window time.Duration, batch int, f func()) float64 {
	f()
	start := time.Now()
	deadline := start.Add(window)
	n := 0
	for time.Now().Before(deadline) {
		f()
		n++
	}
	elapsed := time.Since(start)
	if elapsed <= 0 || n == 0 {
		return 0
	}
	return float64(n*batch) / elapsed.Seconds()
}

// EvaluateForwardCheck reduces a committed/current report pair to the
// compared metrics: a relative floor on every model's snapshot throughput
// and the exact zero-allocation invariant. Models are matched by label, so
// adding a model to the zoo does not break old artifacts.
func EvaluateForwardCheck(committed, current *ForwardReport, tol float64) []CheckResult {
	byModel := make(map[string]ForwardResult, len(current.Results))
	for _, m := range current.Results {
		byModel[m.Model] = m
	}
	var out []CheckResult
	for _, c := range committed.Results {
		cur, ok := byModel[c.Model]
		if !ok {
			out = append(out, CheckResult{
				Name: "forward." + c.Model + ".snapshot_rows_per_sec", Committed: c.SnapshotRowsPerSec,
			})
			continue
		}
		out = append(out, checkFloor("forward."+c.Model+".snapshot_rows_per_sec",
			c.SnapshotRowsPerSec, cur.SnapshotRowsPerSec, tol))
		// Zero allocations is an invariant, not a baseline: the committed
		// value plays no part, any nonzero count fails.
		out = append(out, CheckResult{
			Name:      "forward." + c.Model + ".allocs_per_op",
			Committed: c.SnapshotAllocsPerOp,
			Current:   cur.SnapshotAllocsPerOp,
			Limit:     0,
			Pass:      cur.SnapshotAllocsPerOp == 0,
		})
	}
	return out
}
