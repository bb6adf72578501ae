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
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Fleet bench: the acceptance harness for the shard-and-replicate serving
// fabric. Where the soak drills one gateway/master pair, the fleet bench
// scales whole pairs — each pair is a master (local expert + workers behind
// chaos latency proxies) exposed over the fabric by a MasterServer, fronted
// by its own gateway whose Router spreads across EVERY master via
// RemoteMaster links. Gateways discover the masters through the announce
// gossip, not a static list, so the membership layer is on the measured
// path. Offered load is a fixed per-pair Poisson rate, so aggregate goodput
// across 1→2→4 pairs must scale near-linearly if the fabric adds capacity
// instead of contention: ScalingX is goodput at the largest scale over
// goodput at the smallest.
//
// Mid-run, the scripted timeline stalls one worker link (t/4), heals it
// (t/2), and then hot-swaps the whole fleet (3t/4): new weights are pushed
// over the wire to every worker, then every master, and each gateway cuts
// over with SetModelVersion last — the documented rollout ordering. The
// swap outcome the artifact must pin: zero hard-failed requests and zero
// stale-version cache entries afterwards (the versioned-put guard's reason
// to exist). Deadline misses under chaos are the SLO layer's business and
// are tracked separately from hard failures.

// fleetSpec matches throughputExpert's architecture; the hot-swap pushes
// fresh builds of it over the wire.
var fleetSpec = nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "tp", Input: 64, Width: 128, Layers: 3, Classes: 10}}

// FleetConfig sizes one fleet run. Zero fields take the defaults (400 req/s
// per pair, 8s per scale, 250ms deadline, scales 1/2/4, 2 workers per pair,
// 2ms one-way link delay).
type FleetConfig struct {
	PairQPS        int           // offered Poisson rate per gateway/master pair
	Duration       time.Duration // measured window per scale
	Deadline       time.Duration // per-request deadline (and gateway SLO target)
	Scales         []int         // pair counts to run, ascending
	WorkersPerPair int           // workers per master, each behind a chaos proxy
	NetDelay       time.Duration // one-way delay injected on every worker link
	MaxBatch       int           // gateway row budget
	QueueSize      int           // gateway admission lane size
	GWWorkers      int           // gateway dispatch workers
	CacheSize      int           // per-gateway response-cache entries
	KeySpace       int           // distinct feature vectors in the workload
	Seed           int64
}

func (c FleetConfig) normalized() FleetConfig {
	if c.PairQPS <= 0 {
		c.PairQPS = 400
	}
	if c.Duration <= 0 {
		c.Duration = 8 * time.Second
	}
	if c.Deadline <= 0 {
		c.Deadline = 250 * time.Millisecond
	}
	if len(c.Scales) == 0 {
		c.Scales = []int{1, 2, 4}
	}
	if c.WorkersPerPair <= 0 {
		c.WorkersPerPair = 2
	}
	if c.NetDelay == 0 {
		c.NetDelay = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 512
	}
	if c.GWWorkers <= 0 {
		c.GWWorkers = 4
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 512
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 256
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// FleetSwap is the hot-swap outcome at one scale: the mid-run wire rollout
// judged by what it must NOT do — hard-fail requests or leave version-A
// entries in any gateway cache.
type FleetSwap struct {
	AtSec          float64 `json:"at_sec"`
	PushMs         float64 `json:"push_ms"` // wall time for the worker+master+gateway rollout
	FailedRequests int     `json:"failed_requests"`
	StalePuts      int64   `json:"stale_puts"`
	StaleEntries   int     `json:"stale_entries"`
	Invalidations  int64   `json:"invalidations"`
	Version        string  `json:"version"` // fleet-wide version after cutover ("" = disagreement)
}

// FleetScale is the measured result at one pair count.
type FleetScale struct {
	Pairs      int       `json:"pairs"`
	Offered    int       `json:"offered"`
	Completed  int       `json:"completed"`
	Degraded   int       `json:"degraded"`
	TimedOut   int       `json:"timed_out"`
	Shed       int       `json:"shed"`
	Errors     int       `json:"errors"` // hard failures (not timeouts, not shed)
	GoodputQPS float64   `json:"goodput_qps"`
	P50Ms      float64   `json:"p50_ms"`
	P99Ms      float64   `json:"p99_ms"`
	Swap       FleetSwap `json:"swap"`
}

// FleetReport is the full fleet output, written to BENCH_fleet.json.
type FleetReport struct {
	PairQPS        int          `json:"pair_qps"`
	DurationSec    float64      `json:"duration_sec"`
	DeadlineMs     float64      `json:"deadline_ms"`
	NetDelayMs     float64      `json:"net_delay_ms"`
	WorkersPerPair int          `json:"workers_per_pair"`
	MaxBatch       int          `json:"max_batch"`
	CacheSize      int          `json:"cache_size"`
	KeySpace       int          `json:"key_space"`
	Scales         []FleetScale `json:"scales"`
	ScalingX       float64      `json:"scaling_x"` // goodput(largest)/goodput(smallest)
}

func (r *FleetReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d req/s per pair for %.0fs per scale, %.0fms deadline, %d workers/pair, %.2fms link delay\n",
		r.PairQPS, r.DurationSec, r.DeadlineMs, r.WorkersPerPair, r.NetDelayMs)
	fmt.Fprintf(&b, "  %5s %8s %8s %6s %6s %5s %5s %8s %8s  swap\n",
		"pairs", "offered", "goodput", "degr", "t/o", "shed", "err", "p50ms", "p99ms")
	for _, s := range r.Scales {
		fmt.Fprintf(&b, "  %5d %8d %8.1f %6d %6d %5d %5d %8.2f %8.2f  %s in %.0fms, %d failed, %d stale\n",
			s.Pairs, s.Offered, s.GoodputQPS, s.Degraded, s.TimedOut, s.Shed, s.Errors,
			s.P50Ms, s.P99Ms, s.Swap.Version, s.Swap.PushMs, s.Swap.FailedRequests, s.Swap.StaleEntries)
	}
	fmt.Fprintf(&b, "  scaling: %.2fx aggregate goodput from %d to %d pair(s)",
		r.ScalingX, r.Scales[0].Pairs, r.Scales[len(r.Scales)-1].Pairs)
	return b.String()
}

// fleetPair is one master's worth of stack: the master, its fabric server,
// its workers (direct addresses, for model pushes) and their chaos proxies.
type fleetPair struct {
	master      *cluster.Master
	srv         *cluster.MasterServer
	addr        string
	workers     []*cluster.Worker
	workerAddrs []string
	proxies     []*chaos.Proxy
}

// RunFleetBench runs every configured scale and reduces the results. Setup
// failures are errors; a poor scaling number is a result, judged by
// EvaluateFleetCheck and the bench-fleet caller.
func RunFleetBench(cfg FleetConfig) (*FleetReport, error) {
	cfg = cfg.normalized()
	report := &FleetReport{
		PairQPS:        cfg.PairQPS,
		DurationSec:    cfg.Duration.Seconds(),
		DeadlineMs:     float64(cfg.Deadline.Microseconds()) / 1e3,
		NetDelayMs:     float64(cfg.NetDelay.Microseconds()) / 1e3,
		WorkersPerPair: cfg.WorkersPerPair,
		MaxBatch:       cfg.MaxBatch,
		CacheSize:      cfg.CacheSize,
		KeySpace:       cfg.KeySpace,
	}
	for _, pairs := range cfg.Scales {
		scale, err := runFleetScale(cfg, pairs)
		if err != nil {
			return nil, fmt.Errorf("bench: fleet scale %d: %w", pairs, err)
		}
		report.Scales = append(report.Scales, *scale)
	}
	first, last := report.Scales[0], report.Scales[len(report.Scales)-1]
	if first.GoodputQPS > 0 {
		report.ScalingX = last.GoodputQPS / first.GoodputQPS
	}
	return report, nil
}

// buildFleetPair assembles one master + workers stack. Every worker link
// runs through its own chaos proxy carrying the baseline latency plan.
func buildFleetPair(cfg FleetConfig, idx int, closers *[]func()) (*fleetPair, error) {
	p := &fleetPair{}
	localNet, err := fleetSpec.Build(tensor.NewRNG(cfg.Seed + int64(idx)*100))
	if err != nil {
		return nil, err
	}
	p.master = cluster.NewMaster(localNet, fleetSpec.MLP.Classes)
	p.master.SetTimeout(cfg.Deadline / 2)
	p.master.SetSupervisor(cluster.SupervisorConfig{
		MaxRetries:       1,
		FailureThreshold: 3,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 25 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 100 * time.Millisecond, Max: 500 * time.Millisecond},
	})
	p.master.SetHedge(cluster.HedgeConfig{Enabled: true})
	p.master.SetRetryBudget(cluster.NewRetryBudget(cluster.RetryBudgetConfig{}))
	for w := 0; w < cfg.WorkersPerPair; w++ {
		expert, err := fleetSpec.Build(tensor.NewRNG(cfg.Seed + int64(idx)*100 + int64(w) + 1))
		if err != nil {
			return nil, err
		}
		worker := cluster.NewWorker(expert, idx*100+w+1)
		waddr, err := worker.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		*closers = append(*closers, func() { worker.Close() })
		worker.SetModelVersion("vA")
		p.workers = append(p.workers, worker)
		p.workerAddrs = append(p.workerAddrs, waddr)
		var plan []chaos.Fault
		if cfg.NetDelay > 0 {
			plan = append(plan, chaos.Fault{Mode: chaos.Latency, Delay: cfg.NetDelay})
		}
		proxy := chaos.New(waddr, plan...)
		paddr, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		*closers = append(*closers, func() { proxy.Close() })
		p.proxies = append(p.proxies, proxy)
		if err := p.master.Connect(paddr); err != nil {
			return nil, err
		}
	}
	*closers = append(*closers, func() { p.master.Close() })
	p.srv = cluster.NewMasterServer(p.master, idx+1)
	p.srv.SetModelVersion("vA")
	if p.addr, err = p.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	*closers = append(*closers, func() { p.srv.Close() })
	return p, nil
}

func runFleetScale(cfg FleetConfig, pairs int) (*FleetScale, error) {
	var closers []func()
	shutdown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer shutdown()

	// --- pairs: master + proxied workers, served over the fabric -----------
	fleet := make([]*fleetPair, pairs)
	for i := range fleet {
		p, err := buildFleetPair(cfg, i, &closers)
		if err != nil {
			return nil, err
		}
		fleet[i] = p
	}
	// Anti-entropy membership: every master announces to the first, so its
	// roster accumulates the whole fleet for gateways to bootstrap from.
	for _, p := range fleet[1:] {
		if _, err := p.srv.Announce(fleet[0].addr, 2*time.Second); err != nil {
			return nil, err
		}
	}

	// --- gateways: Router over gossip-discovered masters -------------------
	gateways := make([]*serve.Gateway, pairs)
	routers := make([]*serve.Router, pairs)
	for i := range gateways {
		roster := cluster.NewRoster()
		self := cluster.Member{Role: cluster.RoleGateway, ID: 1000 + i}
		if _, err := cluster.Announce(fleet[0].addr, self, roster, 2*time.Second); err != nil {
			return nil, err
		}
		masters := roster.Masters()
		if len(masters) != pairs {
			return nil, fmt.Errorf("gateway %d discovered %d masters, want %d", i, len(masters), pairs)
		}
		router := serve.NewRouter(0)
		for _, addr := range masters {
			rm := cluster.NewRemoteMaster(addr, cfg.Deadline)
			closers = append(closers, func() { rm.Close() })
			router.Upsert(addr, rm)
		}
		routers[i] = router
		gw := serve.New(router, serve.Config{
			MaxBatch:  cfg.MaxBatch,
			QueueSize: cfg.QueueSize,
			Workers:   cfg.GWWorkers,
			Degraded:  true,
			SLOTarget: cfg.Deadline,
			CacheSize: cfg.CacheSize,
			Coalesce:  true,
		})
		closers = append(closers, func() { gw.Close() })
		gw.SetModelVersion("vA")
		gateways[i] = gw
	}

	// Warmup: dial every fabric link and every peer link, seed rtt state.
	rng := tensor.NewRNG(cfg.Seed + 7)
	rows := make([]*tensor.Tensor, cfg.KeySpace)
	for i := range rows {
		rows[i] = rng.Randn(1, fleetSpec.MLP.Input)
	}
	for _, gw := range gateways {
		for i := 0; i < 4*pairs; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := gw.Predict(ctx, rng.Randn(1, fleetSpec.MLP.Input))
			cancel()
			if err != nil {
				return nil, fmt.Errorf("bench: fleet warmup: %w", err)
			}
		}
	}

	// --- tallies and the scripted timeline ---------------------------------
	var (
		offered, completed, degraded atomic.Int64
		timedOut, shed, errorsN      atomic.Int64
		latMu                        sync.Mutex
		lats                         []time.Duration
	)
	start := time.Now()
	d := cfg.Duration
	swap := FleetSwap{AtSec: (3 * d / 4).Seconds()}
	var swapErr error

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // stall one worker link at t/4, heal it at t/2, swap at 3t/4
		defer aux.Done()
		target := fleet[0].proxies[0]
		healthy := []chaos.Fault(nil)
		if cfg.NetDelay > 0 {
			healthy = []chaos.Fault{{Mode: chaos.Latency, Delay: cfg.NetDelay}}
		}
		steps := []struct {
			at time.Duration
			fn func()
		}{
			{d / 4, func() {
				target.SetPlan(append(append([]chaos.Fault(nil), healthy...), chaos.Fault{Mode: chaos.Stall, Prob: 1})...)
			}},
			{d / 2, func() { target.SetPlan(healthy...) }},
			{3 * d / 4, func() { swap.PushMs, swapErr = fleetHotSwap(cfg, fleet, gateways, "vB") }},
		}
		for _, s := range steps {
			select {
			case <-time.After(time.Until(start.Add(s.at))):
			case <-stop:
				return
			}
			s.fn()
		}
	}()

	// --- open-loop Poisson load, round-robin across gateways ---------------
	fire := func(gw *serve.Gateway, x *tensor.Tensor) {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
		defer cancel()
		qs := time.Now()
		res, err := gw.Predict(ctx, x)
		switch {
		case err == nil:
			completed.Add(1)
			if res.Degraded {
				degraded.Add(1)
			}
			lat := time.Since(qs)
			latMu.Lock()
			lats = append(lats, lat)
			latMu.Unlock()
		case errors.Is(err, serve.ErrQueueFull):
			shed.Add(1)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			timedOut.Add(1)
		default:
			errorsN.Add(1)
		}
	}
	arrivalRNG := rand.New(rand.NewSource(cfg.Seed + 3))
	totalQPS := float64(cfg.PairQPS * pairs)
	end := start.Add(d)
	next := start
	sent := 0
	var wg sync.WaitGroup
	for {
		gap := time.Duration(arrivalRNG.ExpFloat64() / totalQPS * float64(time.Second))
		next = next.Add(gap)
		if next.After(end) {
			break
		}
		if w := time.Until(next); w > 0 {
			time.Sleep(w)
		}
		offered.Add(1)
		gw := gateways[sent%pairs]
		x := rows[sent%len(rows)]
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(gw, x)
		}()
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	if swapErr != nil {
		return nil, fmt.Errorf("bench: fleet hot-swap: %w", swapErr)
	}

	// --- reduce -------------------------------------------------------------
	// Hard failures are the swap verdict's numerator: the rollout must not
	// fail a single request. Deadline misses under the stall window are
	// reported, not charged to the swap.
	swap.FailedRequests = int(errorsN.Load())
	swap.Version = "vB"
	for _, p := range fleet {
		if p.srv.ModelVersion() != "vB" {
			swap.Version = ""
		}
		for _, w := range p.workers {
			if w.ModelVersion() != "vB" {
				swap.Version = ""
			}
		}
	}
	for _, gw := range gateways {
		if gw.ModelVersion() != "vB" {
			swap.Version = ""
		}
		_, stale := gw.CacheStats()
		swap.StaleEntries += stale
		swap.StalePuts += gw.Counters().Counter("serve.cache.stale_puts").Value()
		swap.Invalidations += gw.Counters().Counter("serve.cache.invalidations").Value()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return &FleetScale{
		Pairs:      pairs,
		Offered:    int(offered.Load()),
		Completed:  int(completed.Load()),
		Degraded:   int(degraded.Load()),
		TimedOut:   int(timedOut.Load()),
		Shed:       int(shed.Load()),
		Errors:     int(errorsN.Load()),
		GoodputQPS: float64(completed.Load()) / d.Seconds(),
		P50Ms:      ms(percentile(lats, 0.50)),
		P99Ms:      ms(percentile(lats, 0.99)),
		Swap:       swap,
	}, nil
}

// fleetHotSwap performs the wire rollout in the documented order: fresh
// weights to every worker first, then every master, and only then the
// gateway cutover (SetModelVersion purges each response cache) — so a
// gateway never labels answers vB while any component still serves vA.
func fleetHotSwap(cfg FleetConfig, fleet []*fleetPair, gateways []*serve.Gateway, version string) (float64, error) {
	t0 := time.Now()
	for i, p := range fleet {
		for w, addr := range p.workerAddrs {
			net, err := fleetSpec.Build(tensor.NewRNG(cfg.Seed + 5000 + int64(i)*100 + int64(w) + 1))
			if err != nil {
				return 0, err
			}
			if err := cluster.PushModel(addr, version, fleetSpec, net, 5*time.Second); err != nil {
				return 0, fmt.Errorf("push worker %d/%d: %w", i, w, err)
			}
		}
	}
	for i, p := range fleet {
		net, err := fleetSpec.Build(tensor.NewRNG(cfg.Seed + 5000 + int64(i)*100))
		if err != nil {
			return 0, err
		}
		if err := cluster.PushModel(p.addr, version, fleetSpec, net, 5*time.Second); err != nil {
			return 0, fmt.Errorf("push master %d: %w", i, err)
		}
	}
	for _, gw := range gateways {
		gw.SetModelVersion(version)
	}
	return float64(time.Since(t0).Microseconds()) / 1e3, nil
}
