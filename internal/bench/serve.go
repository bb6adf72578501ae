package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Open-loop gateway benchmark: the acceptance harness for the serve
// subsystem. Where the closed-loop throughput benchmark (throughput.go)
// measures the transport's ceiling — each client fires only when its last
// query returns, so the system is never offered more than it can take —
// this one models a serving workload: the open-loop generator (load.go)
// offers single-sample requests at a target rate whether or not earlier ones
// have finished, each carrying its own deadline, exactly the regime a
// gateway exists for.
//
// Two modes run against identical stacks (stack.go: real master, real
// snapshot-serving worker, latency-injecting chaos proxy as the edge link):
//
//   - "direct": every arrival calls Master.InferContext itself, one
//     single-row broadcast per request. Each request burns a mux window
//     slot and a full frame round trip for one row, so past ~window/RTT
//     the offered load piles onto the link and deadlines start failing.
//   - "gateway": arrivals go through serve.Gateway, which coalesces them
//     into MaxBatch-row tensors — one frame, one broadcast, one batched
//     matmul for every 16 rows — and sheds what it cannot serve in time.
//
// The headline number is goodput: requests completed within their deadline
// per second of offered window. The gateway's micro-batching amortizes the per-frame and
// per-row costs the direct mode pays retail, which is what lets it hold
// goodput at offered rates where the direct mode collapses.

// ServeBenchConfig sizes one direct-vs-gateway comparison. Zero fields take
// the defaults (8000 req/s offered — well past the ~2000 req/s a single-row
// direct mode holds over a 2ms link, so the overload behavior is what gets
// measured — 2s window, 300ms deadline, 2ms one-way link delay, batch 16,
// seed 42).
type ServeBenchConfig struct {
	TargetQPS int           // offered Poisson arrival rate, requests/second
	Duration  time.Duration // measured window per mode
	Deadline  time.Duration // per-request deadline
	NetDelay  time.Duration // one-way link delay (edge RTT model); < 0 = none injected
	MaxBatch  int           // gateway row budget per coalesced batch
	Seed      int64
}

func (c ServeBenchConfig) normalized() ServeBenchConfig {
	if c.TargetQPS <= 0 {
		c.TargetQPS = 8000
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Deadline <= 0 {
		c.Deadline = 300 * time.Millisecond
	}
	if c.NetDelay == 0 {
		c.NetDelay = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ServeBenchResult is one mode's half of the comparison.
type ServeBenchResult struct {
	Mode string `json:"mode"` // "direct" or "gateway"
	Load
}

// ServeBenchReport pairs the two modes under identical offered load.
type ServeBenchReport struct {
	TargetQPS     int              `json:"target_qps"`
	DurationSec   float64          `json:"duration_sec"`
	DeadlineMs    float64          `json:"deadline_ms"`
	NetDelayMs    float64          `json:"net_delay_ms"`
	MaxBatch      int              `json:"max_batch"`
	Direct        ServeBenchResult `json:"direct"`
	Gateway       ServeBenchResult `json:"gateway"`
	Speedup       float64          `json:"speedup"`         // gateway goodput / direct goodput
	MeanBatchRows float64          `json:"mean_batch_rows"` // gateway's achieved coalescing
}

func (r *ServeBenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve: %d req/s offered (Poisson, 1 row each), %.1fs per mode, %.0fms deadline, %.2fms one-way link delay\n",
		r.TargetQPS, r.DurationSec, r.DeadlineMs, r.NetDelayMs)
	for _, m := range []ServeBenchResult{r.Direct, r.Gateway} {
		fmt.Fprintf(&b, "  %-8s %7.1f goodput qps  (%d/%d in deadline; %d timed out, %d shed, %d errors; p50 %.2fms p95 %.2fms p99 %.2fms)\n",
			m.Mode, m.GoodputQPS, m.Completed, m.Offered, m.TimedOut, m.Shed, m.Errors, m.P50Ms, m.P95Ms, m.P99Ms)
	}
	fmt.Fprintf(&b, "  speedup %.2fx (gateway over direct); mean coalesced batch %.1f rows (max %d)",
		r.Speedup, r.MeanBatchRows, r.MaxBatch)
	return b.String()
}

// RunServeBench measures the direct mode first, then the gateway, each
// against a fresh stack so no supervisor state carries over.
func RunServeBench(cfg ServeBenchConfig) (*ServeBenchReport, error) {
	cfg = cfg.normalized()
	direct, _, err := runServeMode(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("bench: direct mode: %w", err)
	}
	gateway, meanBatch, err := runServeMode(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("bench: gateway mode: %w", err)
	}
	report := &ServeBenchReport{
		TargetQPS:     cfg.TargetQPS,
		DurationSec:   cfg.Duration.Seconds(),
		DeadlineMs:    configMs(cfg.Deadline),
		NetDelayMs:    configMs(cfg.NetDelay),
		MaxBatch:      cfg.MaxBatch,
		Direct:        direct,
		Gateway:       gateway,
		MeanBatchRows: meanBatch,
	}
	if direct.GoodputQPS > 0 {
		report.Speedup = gateway.GoodputQPS / direct.GoodputQPS
	}
	return report, nil
}

func runServeMode(cfg ServeBenchConfig, viaGateway bool) (ServeBenchResult, float64, error) {
	st, err := newStack(stackSpec{workers: 1, seed: cfg.Seed, netDelay: cfg.NetDelay})
	if err != nil {
		return ServeBenchResult{}, 0, err
	}
	defer st.close()

	// One query row per simulated client; rows vary so the worker cannot
	// share any per-input state, but the feature width is uniform.
	rows := randRows(tensor.NewRNG(cfg.Seed+1), 64)
	if err := st.warm(rows[:1], 3); err != nil {
		return ServeBenchResult{}, 0, err
	}

	res := ServeBenchResult{Mode: "direct"}
	call := func(ctx context.Context, _ int, x *tensor.Tensor) (bool, error) {
		_, _, err := st.master.InferContext(ctx, x)
		return false, err
	}
	var gw *serve.Gateway
	if viaGateway {
		gw = serve.New(st.master, gatewayConfig(cfg.MaxBatch))
		defer gw.Close()
		res.Mode, call = "gateway", predict(gw)
	}
	res.Load = loadSpec{
		qps: cfg.TargetQPS, window: cfg.Duration, deadline: cfg.Deadline,
		seed: cfg.Seed + 2, pick: cycle(rows), call: call,
	}.run()[0]
	meanBatch := 0.0
	if viaGateway {
		meanBatch = gw.Metrics().ValueHistogram("serve.batch_size").Mean()
	}
	return res, meanBatch, nil
}
