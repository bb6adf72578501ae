package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Fleet bench: the acceptance harness for the shard-and-replicate serving
// fabric. Where the soak drills one gateway/master pair, the fleet bench
// scales whole pairs — each pair is a master (local expert + workers behind
// chaos latency proxies, stack.go) exposed over the fabric by a
// cluster.Node, fronted by its own gateway whose front master
// (cluster.NewFront) routes across EVERY master over supervised peer links.
// Gateways discover the masters through the announce
// gossip, not a static list, so the membership layer is on the measured
// path. Offered load is the open-loop generator's (load.go) at a fixed
// per-pair rate, spread round-robin over the gateways, so aggregate goodput
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
	Pairs int `json:"pairs"`
	Load
	Swap FleetSwap `json:"swap"`
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

// fleetPair is one master's worth of stack plus the fabric server exposing
// the master at addr.
type fleetPair struct {
	*stack
	srv  *cluster.Node
	addr string
}

func (p *fleetPair) close() {
	p.srv.Close()
	p.stack.close()
}

// RunFleetBench runs every configured scale and reduces the results. Setup
// failures are errors; a poor scaling number is a result, judged by
// EvaluateFleetCheck and the bench-fleet caller.
func RunFleetBench(cfg FleetConfig) (*FleetReport, error) {
	cfg = cfg.normalized()
	report := &FleetReport{
		PairQPS:        cfg.PairQPS,
		DurationSec:    cfg.Duration.Seconds(),
		DeadlineMs:     configMs(cfg.Deadline),
		NetDelayMs:     configMs(cfg.NetDelay),
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

// buildFleetPair assembles pair idx — a defended master with a local expert
// and its proxied workers, everything labelled vA — and serves it over the
// fabric.
func buildFleetPair(cfg FleetConfig, idx int) (*fleetPair, error) {
	seed := cfg.Seed + int64(idx)*100
	local, err := benchSpec.Build(tensor.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	st, err := newStack(stackSpec{
		local: local, workers: cfg.WorkersPerPair, seed: seed + 1, idBase: idx * 100,
		netDelay: cfg.NetDelay, defend: cfg.Deadline,
	})
	if err != nil {
		return nil, err
	}
	vA := cluster.Model{Version: "vA"} // no snapshot: label the weights built above
	err = st.master.SetLocal(vA)
	for _, w := range st.workers {
		err = errors.Join(err, w.Swap(vA))
	}
	p := &fleetPair{stack: st, srv: cluster.NewNode(cluster.RoleMaster, st.master, idx+1)}
	if err == nil {
		p.addr, err = p.srv.Listen("127.0.0.1:0")
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return p, nil
}

func runFleetScale(cfg FleetConfig, pairs int) (*FleetScale, error) {
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	// --- pairs: master + proxied workers, served over the fabric -----------
	fleet := make([]*fleetPair, pairs)
	for i := range fleet {
		p, err := buildFleetPair(cfg, i)
		if err != nil {
			return nil, err
		}
		closers = append(closers, p.close)
		fleet[i] = p
	}
	// Anti-entropy membership: every master announces to the first, so its
	// roster accumulates the whole fleet for gateways to bootstrap from.
	for _, p := range fleet[1:] {
		if _, err := cluster.Announce(fleet[0].addr, p.srv.Member(), p.srv.Roster(), 2*time.Second); err != nil {
			return nil, err
		}
	}

	// --- gateways: a front over gossip-discovered masters ------------------
	gwCfg := gatewayConfig(cfg.MaxBatch)
	gwCfg.Degraded = true
	gwCfg.SLOTarget = cfg.Deadline
	gwCfg.CacheSize = cfg.CacheSize
	gwCfg.Coalesce = true
	gateways := make([]*serve.Gateway, pairs)
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
		front := cluster.NewFront(benchSpec.MLP.Classes)
		closers = append(closers, func() { front.Close() })
		front.SetTimeout(cfg.Deadline)
		for _, addr := range masters {
			if err := front.Connect(addr); err != nil {
				return nil, err
			}
		}
		gw := serve.New(front, gwCfg)
		closers = append(closers, func() { gw.Close() })
		gw.SetModelVersion("vA")
		gateways[i] = gw
	}

	// Warmup: dial every fabric link and every peer link, seed rtt state.
	rng := tensor.NewRNG(cfg.Seed + 7)
	rows := randRows(rng, cfg.KeySpace)
	for _, gw := range gateways {
		for i := 0; i < 4*pairs; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := gw.Predict(ctx, rng.Randn(1, benchSpec.MLP.Input))
			cancel()
			if err != nil {
				return nil, fmt.Errorf("bench: fleet warmup: %w", err)
			}
		}
	}

	// --- the load and the scripted timeline: stall one worker link at t/4,
	// heal it at t/2, hot-swap the fleet at 3t/4 --------------------------
	d := cfg.Duration
	swap := FleetSwap{AtSec: (3 * d / 4).Seconds()}
	var swapErr error
	load := loadSpec{
		qps: cfg.PairQPS * pairs, window: d, deadline: cfg.Deadline, seed: cfg.Seed + 3,
		pick: cycle(rows), call: predict(gateways...),
		timeline: []step{
			{d / 4, func() { fleet[0].setLink(0, chaos.Fault{Mode: chaos.Stall, Prob: 1}) }},
			{d / 2, func() { fleet[0].setLink(0) }},
			{3 * d / 4, func() { swap.PushMs, swapErr = fleetHotSwap(cfg, fleet, gateways, "vB") }},
		},
	}.run()[0]
	if swapErr != nil {
		return nil, fmt.Errorf("bench: fleet hot-swap: %w", swapErr)
	}

	// Hard failures are the swap verdict's numerator: the rollout must not
	// fail a single request. Deadline misses under the stall window are
	// reported, not charged to the swap.
	swap.FailedRequests = load.Errors
	swap.Version = "vB"
	for _, p := range fleet {
		if p.srv.Member().Version != "vB" {
			swap.Version = ""
		}
		for _, w := range p.workers {
			if w.Model().Version != "vB" {
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
		swap.StalePuts += gw.Metrics().Counter("serve.cache.stale_puts").Value()
		swap.Invalidations += gw.Metrics().Counter("serve.cache.invalidations").Value()
	}
	return &FleetScale{Pairs: pairs, Load: load, Swap: swap}, nil
}

// fleetHotSwap performs the wire rollout in the documented order: fresh
// weights to every worker first, then every master, and only then the
// gateway cutover (SetModelVersion purges each response cache) — so a
// gateway never labels answers vB while any component still serves vA.
func fleetHotSwap(cfg FleetConfig, fleet []*fleetPair, gateways []*serve.Gateway, version string) (float64, error) {
	t0 := time.Now()
	for i, p := range fleet {
		for w, addr := range p.workerAddrs {
			net, err := benchSpec.Build(tensor.NewRNG(cfg.Seed + 5000 + int64(i)*100 + int64(w) + 1))
			if err != nil {
				return 0, err
			}
			if err := cluster.PushModel(addr, version, benchSpec, net, 5*time.Second); err != nil {
				return 0, fmt.Errorf("push worker %d/%d: %w", i, w, err)
			}
		}
	}
	for i, p := range fleet {
		net, err := benchSpec.Build(tensor.NewRNG(cfg.Seed + 5000 + int64(i)*100))
		if err != nil {
			return 0, err
		}
		if err := cluster.PushModel(p.addr, version, benchSpec, net, 5*time.Second); err != nil {
			return 0, fmt.Errorf("push master %d: %w", i, err)
		}
	}
	for _, gw := range gateways {
		gw.SetModelVersion(version)
	}
	return float64(time.Since(t0).Microseconds()) / 1e3, nil
}
