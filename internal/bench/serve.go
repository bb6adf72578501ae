package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Open-loop gateway benchmark: the acceptance harness for the serve
// subsystem. Where the closed-loop throughput benchmark (throughput.go)
// measures the transport's ceiling — each client fires only when its last
// query returns, so the system is never offered more than it can take —
// this one models a serving workload: single-sample requests arrive on a
// Poisson clock at a target rate whether or not earlier ones have finished,
// each carrying its own deadline, exactly the regime a gateway exists for.
//
// Two modes run against identical stacks (real master, real snapshot-serving
// worker, latency-injecting chaos proxy as the edge link):
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
// per second. The gateway's micro-batching amortizes the per-frame and
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
	NetDelay  time.Duration // one-way link delay (edge RTT model); < 0 = raw loopback
	MaxBatch  int           // gateway row budget per coalesced batch
	Workers   int           // gateway dispatch workers
	QueueSize int           // gateway admission lane size
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
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 512
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ServeBenchResult is one mode's half of the comparison. Offered counts
// arrivals; Completed only those answered within their deadline — goodput
// is Completed over the measured window.
type ServeBenchResult struct {
	Mode       string  `json:"mode"` // "direct" or "gateway"
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`
	TimedOut   int     `json:"timed_out"`
	Shed       int     `json:"shed"` // gateway only: rejected at admission
	Errors     int     `json:"errors"`
	GoodputQPS float64 `json:"goodput_qps"`
	P50Ms      float64 `json:"p50_ms"` // of completed requests
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
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
// against a fresh worker so no supervisor state carries over.
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
	delay := cfg.NetDelay
	if delay < 0 {
		delay = 0
	}
	report := &ServeBenchReport{
		TargetQPS:     cfg.TargetQPS,
		DurationSec:   cfg.Duration.Seconds(),
		DeadlineMs:    float64(cfg.Deadline.Microseconds()) / 1e3,
		NetDelayMs:    float64(delay.Microseconds()) / 1e3,
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

// serveBenchStack is one mode's freshly built master + worker + edge link.
type serveBenchStack struct {
	master *cluster.Master
	close  func()
}

func newServeBenchStack(cfg ServeBenchConfig) (*serveBenchStack, error) {
	expert, err := throughputExpert(cfg.Seed)
	if err != nil {
		return nil, err
	}
	worker := cluster.NewWorker(expert, 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	closers := []func(){func() { worker.Close() }}
	if cfg.NetDelay > 0 {
		proxy := chaos.New(addr, chaos.Fault{Mode: chaos.Latency, Delay: cfg.NetDelay})
		addr, err = proxy.Listen("127.0.0.1:0")
		if err != nil {
			worker.Close()
			return nil, err
		}
		closers = append(closers, func() { proxy.Close() })
	}
	master := cluster.NewMaster(nil, 10)
	master.SetTimeout(10 * time.Second)
	if err := master.Connect(addr); err != nil {
		master.Close()
		for _, c := range closers {
			c()
		}
		return nil, err
	}
	closers = append(closers, func() { master.Close() })
	return &serveBenchStack{
		master: master,
		close: func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		},
	}, nil
}

func runServeMode(cfg ServeBenchConfig, viaGateway bool) (ServeBenchResult, float64, error) {
	stack, err := newServeBenchStack(cfg)
	if err != nil {
		return ServeBenchResult{}, 0, err
	}
	defer stack.close()

	var gw *serve.Gateway
	if viaGateway {
		gw = serve.New(stack.master, serve.Config{
			MaxBatch:  cfg.MaxBatch,
			QueueSize: cfg.QueueSize,
			Workers:   cfg.Workers,
		})
		defer gw.Close()
	}

	// One query row per simulated client; rows vary so the worker cannot
	// share any per-input state, but the feature width is uniform.
	rng := tensor.NewRNG(cfg.Seed + 1)
	rows := make([]*tensor.Tensor, 64)
	for i := range rows {
		rows[i] = rng.Randn(1, 64)
	}
	for i := 0; i < 3; i++ { // warmup: connections dialed, pools touched
		if _, _, err := stack.master.Infer(rows[0]); err != nil {
			return ServeBenchResult{}, 0, err
		}
	}

	var (
		completed atomic.Int64
		timedOut  atomic.Int64
		shed      atomic.Int64
		errorsN   atomic.Int64
		latMu     sync.Mutex
		lats      []time.Duration
	)
	fire := func(x *tensor.Tensor) {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
		defer cancel()
		qs := time.Now()
		var err error
		if viaGateway {
			_, err = gw.Predict(ctx, x)
		} else {
			_, _, err = stack.master.InferContext(ctx, x)
		}
		switch {
		case err == nil:
			completed.Add(1)
			d := time.Since(qs)
			latMu.Lock()
			lats = append(lats, d)
			latMu.Unlock()
		case errors.Is(err, serve.ErrQueueFull):
			shed.Add(1)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			timedOut.Add(1)
		default:
			errorsN.Add(1)
		}
	}

	// Open-loop Poisson arrivals: exponential inter-arrival gaps paced
	// against absolute time, so a slow system cannot slow the clock down —
	// that back-pressure immunity is the whole point of open loop.
	arrivalRNG := rand.New(rand.NewSource(cfg.Seed + 2))
	offered := 0
	start := time.Now()
	end := start.Add(cfg.Duration)
	next := start
	var wg sync.WaitGroup
	for {
		gap := time.Duration(arrivalRNG.ExpFloat64() / float64(cfg.TargetQPS) * float64(time.Second))
		next = next.Add(gap)
		if next.After(end) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		x := rows[offered%len(rows)]
		offered++
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(x)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	mode := "direct"
	if viaGateway {
		mode = "gateway"
	}
	res := ServeBenchResult{
		Mode:       mode,
		Offered:    offered,
		Completed:  int(completed.Load()),
		TimedOut:   int(timedOut.Load()),
		Shed:       int(shed.Load()),
		Errors:     int(errorsN.Load()),
		GoodputQPS: float64(completed.Load()) / elapsed.Seconds(),
		P50Ms:      ms(percentile(lats, 0.50)),
		P95Ms:      ms(percentile(lats, 0.95)),
		P99Ms:      ms(percentile(lats, 0.99)),
	}
	meanBatch := 0.0
	if viaGateway {
		meanBatch = gw.ValueHistograms().Histogram("serve.batch_size").Mean()
	}
	return res, meanBatch, nil
}
