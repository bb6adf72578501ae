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

	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Demand-shaping benchmark: the acceptance harness for the gateway's
// response cache and singleflight coalescer. The serve benchmark (serve.go)
// offers uniformly *distinct* rows, which is the cache's worst case and the
// batcher's best; real edge traffic is the opposite — heavily skewed toward
// hot inputs (repeated sensor frames, popular queries). This benchmark
// models that skew with a Zipf-distributed key space: open-loop Poisson
// arrivals each draw one of KeySpace distinct feature vectors with
// Zipf(s≈1.1) popularity, so a handful of vectors dominate while a long
// tail keeps the cache honest.
//
// Two modes run against identical stacks under identical offered load:
//
//   - "uncached": the PR 6–8 gateway — every arrival is micro-batched and
//     costs its share of an ensemble inference, duplicates included.
//   - "cached": the same gateway with the content-addressed response cache
//     and singleflight on. Hot vectors are answered from the cache in
//     microseconds; concurrent identical misses coalesce into one batched
//     inference.
//
// The headline is again goodput (answers within deadline per second). Past
// the uncached mode's compute ceiling, the cached gateway keeps absorbing
// offered load because repeats stop costing inference — the acceptance bar
// is ≥2x goodput at equal offered load on the skewed workload.

// CacheBenchConfig sizes one uncached-vs-cached comparison. Zero fields take
// the defaults: 20000 req/s offered (about twice what the uncached gateway
// holds over a 2ms link), 3s per mode, 250ms deadlines, 512-key Zipf(1.1)
// key space, 4096-entry cache with a 30s TTL.
type CacheBenchConfig struct {
	QPS       int           // offered Poisson arrival rate, requests/second
	Duration  time.Duration // measured window per mode
	Deadline  time.Duration // per-request deadline
	NetDelay  time.Duration // one-way link delay; < 0 = raw loopback
	MaxBatch  int           // gateway row budget per coalesced batch
	Workers   int           // gateway dispatch workers
	QueueSize int           // gateway admission lane size
	KeySpace  int           // distinct feature vectors in the workload
	ZipfS     float64       // Zipf skew exponent (s > 1)
	CacheSize int           // response-cache entries in the cached mode
	CacheTTL  time.Duration // response-cache TTL in the cached mode
	Seed      int64
}

func (c CacheBenchConfig) normalized() CacheBenchConfig {
	if c.QPS <= 0 {
		c.QPS = 20000
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Deadline <= 0 {
		c.Deadline = 250 * time.Millisecond
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
	if c.KeySpace <= 0 {
		c.KeySpace = 512
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// CacheBenchResult is one mode's half of the comparison.
type CacheBenchResult struct {
	Mode       string  `json:"mode"` // "uncached" or "cached"
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`
	TimedOut   int     `json:"timed_out"`
	Shed       int     `json:"shed"`
	Errors     int     `json:"errors"`
	GoodputQPS float64 `json:"goodput_qps"`
	P50Ms      float64 `json:"p50_ms"` // of completed requests
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	CacheHits  int64   `json:"cache_hits"`
	Misses     int64   `json:"cache_misses"`
	Coalesced  int64   `json:"coalesced"`
	HitRatePct int64   `json:"hit_rate_pct"`
}

// CacheBenchReport pairs the two modes under identical offered Zipf load.
type CacheBenchReport struct {
	QPS         int              `json:"target_qps"`
	DurationSec float64          `json:"duration_sec"`
	DeadlineMs  float64          `json:"deadline_ms"`
	NetDelayMs  float64          `json:"net_delay_ms"`
	MaxBatch    int              `json:"max_batch"`
	KeySpace    int              `json:"key_space"`
	ZipfS       float64          `json:"zipf_s"`
	CacheSize   int              `json:"cache_size"`
	CacheTTLSec float64          `json:"cache_ttl_sec"`
	Uncached    CacheBenchResult `json:"uncached"`
	Cached      CacheBenchResult `json:"cached"`
	Speedup     float64          `json:"speedup"` // cached goodput / uncached goodput
}

func (r *CacheBenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache: %d req/s offered (Poisson over Zipf(s=%.2f) × %d keys), %.1fs per mode, %.0fms deadline, %.2fms one-way link delay\n",
		r.QPS, r.ZipfS, r.KeySpace, r.DurationSec, r.DeadlineMs, r.NetDelayMs)
	for _, m := range []CacheBenchResult{r.Uncached, r.Cached} {
		fmt.Fprintf(&b, "  %-8s %8.1f goodput qps  (%d/%d in deadline; %d timed out, %d shed, %d errors; p50 %.2fms p95 %.2fms p99 %.2fms",
			m.Mode, m.GoodputQPS, m.Completed, m.Offered, m.TimedOut, m.Shed, m.Errors, m.P50Ms, m.P95Ms, m.P99Ms)
		if m.Mode == "cached" {
			fmt.Fprintf(&b, "; %d hits / %d misses / %d coalesced, hit rate %d%%", m.CacheHits, m.Misses, m.Coalesced, m.HitRatePct)
		}
		b.WriteString(")\n")
	}
	fmt.Fprintf(&b, "  speedup %.2fx (cached over uncached, %d-entry cache, %.0fs TTL)",
		r.Speedup, r.CacheSize, r.CacheTTLSec)
	return b.String()
}

// RunCacheBench measures the uncached gateway first, then the cached one,
// each against a fresh master/worker/link stack so no supervisor or mux
// state carries over.
func RunCacheBench(cfg CacheBenchConfig) (*CacheBenchReport, error) {
	cfg = cfg.normalized()
	uncached, err := runCacheMode(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("bench: uncached mode: %w", err)
	}
	cached, err := runCacheMode(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("bench: cached mode: %w", err)
	}
	delay := cfg.NetDelay
	if delay < 0 {
		delay = 0
	}
	report := &CacheBenchReport{
		QPS:         cfg.QPS,
		DurationSec: cfg.Duration.Seconds(),
		DeadlineMs:  float64(cfg.Deadline.Microseconds()) / 1e3,
		NetDelayMs:  float64(delay.Microseconds()) / 1e3,
		MaxBatch:    cfg.MaxBatch,
		KeySpace:    cfg.KeySpace,
		ZipfS:       cfg.ZipfS,
		CacheSize:   cfg.CacheSize,
		CacheTTLSec: cfg.CacheTTL.Seconds(),
		Uncached:    uncached,
		Cached:      cached,
	}
	if uncached.GoodputQPS > 0 {
		report.Speedup = cached.GoodputQPS / uncached.GoodputQPS
	}
	return report, nil
}

func runCacheMode(cfg CacheBenchConfig, withCache bool) (CacheBenchResult, error) {
	stack, err := newServeBenchStack(ServeBenchConfig{NetDelay: cfg.NetDelay, Seed: cfg.Seed})
	if err != nil {
		return CacheBenchResult{}, err
	}
	defer stack.close()

	gwCfg := serve.Config{
		MaxBatch:  cfg.MaxBatch,
		QueueSize: cfg.QueueSize,
		Workers:   cfg.Workers,
	}
	if withCache {
		gwCfg.CacheSize = cfg.CacheSize
		gwCfg.CacheTTL = cfg.CacheTTL
		gwCfg.Coalesce = true
	}
	gw := serve.New(stack.master, gwCfg)
	defer gw.Close()

	// The key space: KeySpace distinct vectors whose popularity follows
	// Zipf(s) — rank 0 is the hottest. Both modes draw the identical
	// sequence (same seed), so the comparison isolates the shaping layer.
	rng := tensor.NewRNG(cfg.Seed + 1)
	keys := make([]*tensor.Tensor, cfg.KeySpace)
	for i := range keys {
		keys[i] = rng.Randn(1, 64)
	}
	zipfRNG := rand.New(rand.NewSource(cfg.Seed + 3))
	zipf := rand.NewZipf(zipfRNG, cfg.ZipfS, 1, uint64(cfg.KeySpace-1))

	for i := 0; i < 3; i++ { // warmup: connections dialed, pools touched
		if _, _, err := stack.master.Infer(keys[0]); err != nil {
			return CacheBenchResult{}, err
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
		_, err := gw.Predict(ctx, x)
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

	// Open-loop Poisson arrivals, same regime as the serve benchmark: the
	// clock does not slow down when the system does.
	arrivalRNG := rand.New(rand.NewSource(cfg.Seed + 2))
	offered := 0
	start := time.Now()
	end := start.Add(cfg.Duration)
	next := start
	var wg sync.WaitGroup
	for {
		gap := time.Duration(arrivalRNG.ExpFloat64() / float64(cfg.QPS) * float64(time.Second))
		next = next.Add(gap)
		if next.After(end) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		x := keys[zipf.Uint64()]
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
	mode := "uncached"
	if withCache {
		mode = "cached"
	}
	counters := gw.Counters()
	return CacheBenchResult{
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
		CacheHits:  counters.Counter("serve.cache.hits").Value(),
		Misses:     counters.Counter("serve.cache.misses").Value(),
		Coalesced:  counters.Counter("serve.cache.coalesced").Value(),
		HitRatePct: gw.Gauges().Gauge("serve.cache.hit_rate_pct").Value(),
	}, nil
}
