package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Compute-kernel benchmark: how close the forward passes run to this
// machine's peak. Every model family in the zoo runs a fixed-size batch
// through the frozen Snapshot (the engine the cluster serves from) and
// through one training step on its Network (forward, loss and backward —
// the same layer arithmetic, since each layer's Forward runs its snapshot
// step), and each rate is read as a share of the no-FMA multiply/add peak
// (tensor.PeakGFLOPS) measured between the same run's timing slices. A
// share compares this host with itself, so the gate (EvaluateForwardCheck)
// floors it rather than the absolute throughput of the host that committed
// the artifact; a host with no measurable peak fails the run.
//
// The snapshot's steady-state heap allocations per forward are the other
// load-bearing number: the arena design promises ZERO once warm (DESIGN.md
// §10), which keeps the garbage collector out of the serving tail, so the
// gate pins it as an exact invariant, not a tolerance band — one alloc is a
// regression.

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

// ForwardResult is one model's measured rates. A training row costs three
// forward rows of FLOPs (the forward, then the input and weight gradients).
type ForwardResult struct {
	Model               string  `json:"model"`
	Params              int     `json:"params"`
	FLOPsPerRow         float64 `json:"flops_per_row"`          // one forward, nn.NetworkFLOPs
	PeakGFLOPS          float64 `json:"peak_gflops"`            // the machine's peak, measured between this model's slices
	SnapshotRowsPerSec  float64 `json:"snapshot_rows_per_sec"`  // Snapshot.ForwardInto
	SnapshotGFLOPS      float64 `json:"snapshot_gflops"`        // SnapshotRowsPerSec · FLOPsPerRow
	SnapshotPeakPct     float64 `json:"snapshot_peak_pct"`      // SnapshotGFLOPS as a percentage of PeakGFLOPS
	TrainRowsPerSec     float64 `json:"train_rows_per_sec"`     // training steps, forward + backward
	TrainPeakPct        float64 `json:"train_peak_pct"`         // their GFLOP/s as a percentage of PeakGFLOPS
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
	fmt.Fprintf(&b, "  %-8s %10s %9s %12s %9s %9s %12s %9s %10s\n",
		"model", "params", "peak GF/s", "snap rows/s", "snap GF/s", "snap %pk", "train rows/s", "train %pk", "allocs/op")
	for _, m := range r.Results {
		fmt.Fprintf(&b, "  %-8s %10d %9.1f %12.0f %9.2f %9.1f %12.0f %9.1f %10.0f\n",
			m.Model, m.Params, m.PeakGFLOPS, m.SnapshotRowsPerSec, m.SnapshotGFLOPS, m.SnapshotPeakPct,
			m.TrainRowsPerSec, m.TrainPeakPct, m.SnapshotAllocsPerOp)
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

// RunForwardBench measures every zoo model's snapshot forward and training
// step against the machine's peak. It fails on a machine where no peak can
// be measured: without one the gate would have nothing to read a rate
// against.
func RunForwardBench(cfg ForwardBenchConfig) (*ForwardReport, error) {
	cfg = cfg.normalized()
	if machinePeak() <= 0 {
		return nil, fmt.Errorf("bench: no measurable multiply/add peak on this machine (tensor.PeakGFLOPS is 0 at every width); the forward gate reads every rate as a share of it")
	}
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
		labels := make([]int, cfg.Batch)
		for r := range labels {
			labels[r] = rng.Intn(10)
		}
		net.Forward(x, true) // populate batch-norm running statistics
		snap, err := nn.NewSnapshot(net)
		if err != nil {
			return nil, fmt.Errorf("bench: snapshot %s: %w", spec.Label(), err)
		}
		res := ForwardResult{Model: spec.Label(), Params: net.ParamCount(), FLOPsPerRow: nn.NetworkFLOPs(net)}
		out := snap.Forward(x) // sized destination; also warms the arena pool
		res.SnapshotRowsPerSec, res.TrainRowsPerSec, res.PeakGFLOPS = measureRowsPerSec(cfg.Duration, cfg.Batch,
			func() { snap.ForwardInto(out, x) },
			func() {
				net.ZeroGrads()
				_, _, dLogits := nn.SoftmaxCrossEntropy(net.Forward(x, true), labels)
				net.Backward(dLogits)
			})
		res.SnapshotGFLOPS = res.SnapshotRowsPerSec * res.FLOPsPerRow / 1e9
		res.SnapshotPeakPct = 100 * res.SnapshotGFLOPS / res.PeakGFLOPS
		res.TrainPeakPct = 100 * res.TrainRowsPerSec * 3 * res.FLOPsPerRow / 1e9 / res.PeakGFLOPS
		res.SnapshotAllocsPerOp = testing.AllocsPerRun(5, func() {
			snap.ForwardInto(out, x)
		})
		report.Results = append(report.Results, res)
	}
	return report, nil
}

// machinePeak is the widest usable no-FMA multiply/add peak of one core, in
// GFLOP/s: zmm where the machine has AVX-512, else ymm, else 0.
func machinePeak() float64 {
	if p := tensor.PeakGFLOPS(8); p > 0 {
		return p
	}
	return tensor.PeakGFLOPS(4)
}

// forwardSlices is how many turns each engine takes in measureRowsPerSec.
const forwardSlices = 10

// measureRowsPerSec runs snap and train (one batch each) in closed loops
// for roughly the window apiece and returns each one's sustained
// rows/second, with the best machine peak measured before each round of
// turns. The engines take turns in forwardSlices slices, so a change in the
// host's load reaches both and the peak. One untimed call each warms caches
// and pools first.
func measureRowsPerSec(window time.Duration, batch int, snap, train func()) (snapRate, trainRate, peak float64) {
	engines := [2]func(){snap, train}
	var calls [2]int
	var spent [2]time.Duration
	for _, f := range engines {
		f()
	}
	for i := 0; i < forwardSlices; i++ {
		peak = max(peak, machinePeak())
		for e, f := range engines {
			runtime.GC() // the other engine's garbage is not this one's cost
			start := time.Now()
			for deadline := start.Add(window / forwardSlices); time.Now().Before(deadline); calls[e]++ {
				f()
			}
			spent[e] += time.Since(start)
		}
	}
	rate := func(e int) float64 {
		return float64(calls[e]*batch) / spent[e].Seconds()
	}
	return rate(0), rate(1), peak
}

// EvaluateForwardCheck reduces a committed/current report pair to the
// compared metrics: a relative floor on every model's snapshot and
// training-step share of the machine peak — each measured against the peak
// of its own run, so the gate compares this host against itself — and the
// exact zero-allocation invariant. Models are matched by label, so adding a
// model to the zoo does not break old artifacts.
func EvaluateForwardCheck(committed, current *ForwardReport, tol float64) []CheckResult {
	byModel := make(map[string]ForwardResult, len(current.Results))
	for _, m := range current.Results {
		byModel[m.Model] = m
	}
	var out []CheckResult
	for _, c := range committed.Results {
		name := "forward." + c.Model
		cur, ok := byModel[c.Model]
		if !ok {
			out = append(out, CheckResult{Name: name + ".snapshot_peak_pct", Committed: c.SnapshotPeakPct})
			continue
		}
		out = append(out,
			checkFloor(name+".snapshot_peak_pct", c.SnapshotPeakPct, cur.SnapshotPeakPct, tol),
			checkFloor(name+".train_peak_pct", c.TrainPeakPct, cur.TrainPeakPct, tol),
			// Zero allocations is an invariant, not a baseline: the
			// committed value plays no part, any nonzero count fails.
			CheckResult{
				Name:      name + ".allocs_per_op",
				Committed: c.SnapshotAllocsPerOp,
				Current:   cur.SnapshotAllocsPerOp,
				Limit:     0,
				Pass:      cur.SnapshotAllocsPerOp == 0,
			})
	}
	return out
}
