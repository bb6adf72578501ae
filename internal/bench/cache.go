package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Demand-shaping benchmark: the acceptance harness for the gateway's
// response cache and singleflight coalescer. The serve benchmark (serve.go)
// offers uniformly *distinct* rows, which is the cache's worst case and the
// batcher's best; real edge traffic is the opposite — heavily skewed toward
// hot inputs (repeated sensor frames, popular queries). This benchmark
// models that skew with a Zipf-distributed key space: each arrival of the
// open-loop generator (load.go) draws one of KeySpace distinct feature
// vectors with Zipf(s≈1.1) popularity, so a handful of vectors dominate
// while a long tail keeps the cache honest.
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
	NetDelay  time.Duration // one-way link delay; < 0 = none injected
	MaxBatch  int           // gateway row budget per coalesced batch
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
	Mode string `json:"mode"` // "uncached" or "cached"
	Load
	CacheHits  int64 `json:"cache_hits"`
	Misses     int64 `json:"cache_misses"`
	Coalesced  int64 `json:"coalesced"`
	HitRatePct int64 `json:"hit_rate_pct"`
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
	report := &CacheBenchReport{
		QPS:         cfg.QPS,
		DurationSec: cfg.Duration.Seconds(),
		DeadlineMs:  configMs(cfg.Deadline),
		NetDelayMs:  configMs(cfg.NetDelay),
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
	st, err := newStack(stackSpec{workers: 1, seed: cfg.Seed, netDelay: cfg.NetDelay})
	if err != nil {
		return CacheBenchResult{}, err
	}
	defer st.close()

	res := CacheBenchResult{Mode: "uncached"}
	gwCfg := gatewayConfig(cfg.MaxBatch)
	if withCache {
		res.Mode = "cached"
		gwCfg.CacheSize = cfg.CacheSize
		gwCfg.CacheTTL = cfg.CacheTTL
		gwCfg.Coalesce = true
	}
	gw := serve.New(st.master, gwCfg)
	defer gw.Close()

	// The key space: KeySpace distinct vectors whose popularity follows
	// Zipf(s) — rank 0 is the hottest. Both modes draw the identical
	// sequence (same seed), so the comparison isolates the shaping layer.
	keys := randRows(tensor.NewRNG(cfg.Seed+1), cfg.KeySpace)
	zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.Seed+3)), cfg.ZipfS, 1, uint64(cfg.KeySpace-1))
	if err := st.warm(keys[:1], 3); err != nil {
		return CacheBenchResult{}, err
	}

	res.Load = loadSpec{
		qps: cfg.QPS, window: cfg.Duration, deadline: cfg.Deadline, seed: cfg.Seed + 2,
		pick: func(int) *tensor.Tensor { return keys[zipf.Uint64()] },
		call: predict(gw),
	}.run()[0]
	m := gw.Metrics()
	res.CacheHits = m.Counter("serve.cache.hits").Value()
	res.Misses = m.Counter("serve.cache.misses").Value()
	res.Coalesced = m.Counter("serve.cache.coalesced").Value()
	res.HitRatePct = m.Gauge("serve.cache.hit_rate_pct").Value()
	return res, nil
}
