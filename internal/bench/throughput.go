package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Closed-loop multi-client throughput benchmark: the acceptance harness for
// the multiplexed peer transport. Unlike the edgesim experiments (which
// model the paper's single-query latency), this drives a REAL master and a
// REAL snapshot-serving worker over real TCP with N closed-loop clients — each fires
// its next query the moment the previous one answers — once with the paper's
// one-in-flight discipline (a one-slot gate around Master.Infer: the same
// mux frames, a window of one) and once with the pipeline's full window, and
// reports QPS plus latency percentiles for both.
//
// The link between master and worker runs through the chaos proxy's
// latency injector, because bare loopback has none of the physics the mux
// transport exists for: TeamNet deploys over edge WiFi (paper §V), where
// every round trip costs milliseconds. On such a link one-in-flight
// caps throughput at one request per RTT however concurrent the worker's
// inference snapshot is, while the pipeline shares the RTT across every request in
// its window — that gap is what this benchmark measures. NetDelay < 0
// injects no delay (the proxy still forwards), for comparison.

// ThroughputConfig sizes one serial-vs-mux comparison. Zero fields take the
// defaults (8 clients, batch 4, 2s per mode, 2ms injected one-way link
// delay, seed 42).
type ThroughputConfig struct {
	Clients  int           // concurrent closed-loop clients
	Batch    int           // rows per query
	Duration time.Duration // measured window per mode
	NetDelay time.Duration // one-way link delay (edge RTT model); < 0 = none injected
	Seed     int64
}

func (c ThroughputConfig) normalized() ThroughputConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Batch <= 0 {
		c.Batch = 4
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.NetDelay == 0 {
		c.NetDelay = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ThroughputResult is one mode's measured half of the comparison.
type ThroughputResult struct {
	Mode    string  `json:"mode"` // "serial" or "mux"
	Queries int     `json:"queries"`
	QPS     float64 `json:"qps"`
	MeanMs  float64 `json:"mean_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
}

// ThroughputReport pairs the two modes under identical load.
type ThroughputReport struct {
	Clients     int              `json:"clients"`
	Batch       int              `json:"batch"`
	DurationSec float64          `json:"duration_sec"`
	NetDelayMs  float64          `json:"net_delay_ms"` // injected one-way link delay
	Serial      ThroughputResult `json:"serial"`
	Mux         ThroughputResult `json:"mux"`
	Speedup     float64          `json:"speedup"` // mux QPS / serial QPS
}

func (r *ThroughputReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "throughput: %d clients, batch %d, %.2fms one-way link delay, %.1fs per mode\n",
		r.Clients, r.Batch, r.NetDelayMs, r.DurationSec)
	for _, m := range []ThroughputResult{r.Serial, r.Mux} {
		fmt.Fprintf(&b, "  %-6s %7.1f qps  (%d queries; mean %.2fms p50 %.2fms p95 %.2fms p99 %.2fms)\n",
			m.Mode, m.QPS, m.Queries, m.MeanMs, m.P50Ms, m.P95Ms, m.P99Ms)
	}
	fmt.Fprintf(&b, "  speedup %.2fx (mux over serial)", r.Speedup)
	return b.String()
}

// RunThroughput measures the serial baseline first, then the mux pipeline,
// each against a fresh worker so no state carries over.
func RunThroughput(cfg ThroughputConfig) (*ThroughputReport, error) {
	cfg = cfg.normalized()
	serial, err := runThroughputMode(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("bench: serial mode: %w", err)
	}
	mux, err := runThroughputMode(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("bench: mux mode: %w", err)
	}
	report := &ThroughputReport{
		Clients:     cfg.Clients,
		Batch:       cfg.Batch,
		DurationSec: cfg.Duration.Seconds(),
		NetDelayMs:  configMs(cfg.NetDelay),
		Serial:      serial,
		Mux:         mux,
	}
	if serial.QPS > 0 {
		report.Speedup = mux.QPS / serial.QPS
	}
	return report, nil
}

func runThroughputMode(cfg ThroughputConfig, mux bool) (ThroughputResult, error) {
	// Peer-only master: a local expert would add non-wire compute to every
	// query and blur the transport comparison.
	st, err := newStack(stackSpec{workers: 1, seed: cfg.Seed, netDelay: cfg.NetDelay})
	if err != nil {
		return ThroughputResult{}, err
	}
	defer st.close()

	x := tensor.NewRNG(cfg.Seed+1).Randn(cfg.Batch, 64)
	if err := st.warm([]*tensor.Tensor{x}, 3); err != nil {
		return ThroughputResult{}, err
	}
	// The serial baseline is the paper's protocol: one request on the link
	// at a time, the next one sent only when the reply is in. On this
	// single-peer master a one-slot gate around Infer is exactly that; a
	// client's wait for the slot counts toward its latency.
	var oneInFlight sync.Mutex
	infer := func() error {
		if !mux {
			oneInFlight.Lock()
			defer oneInFlight.Unlock()
		}
		_, _, err := st.master.Infer(x)
		return err
	}

	lats := make([][]time.Duration, cfg.Clients)
	errs := make([]error, cfg.Clients)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				qs := time.Now()
				if err := infer(); err != nil {
					errs[c] = err
					return
				}
				lats[c] = append(lats[c], time.Since(qs))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ThroughputResult{}, err
		}
	}

	var all metrics.Summary
	for _, l := range lats {
		for _, d := range l {
			all.Observe(d)
		}
	}
	if all.N() == 0 {
		return ThroughputResult{}, fmt.Errorf("no queries completed in %v", cfg.Duration)
	}
	mode := "serial"
	if mux {
		mode = "mux"
	}
	return ThroughputResult{
		Mode:    mode,
		Queries: all.N(),
		QPS:     float64(all.N()) / elapsed.Seconds(),
		MeanMs:  ms(all.Mean()),
		P50Ms:   ms(all.Percentile(50)),
		P95Ms:   ms(all.Percentile(95)),
		P99Ms:   ms(all.Percentile(99)),
	}, nil
}
