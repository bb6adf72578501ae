package bench

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Fleet drill: the one live acceptance harness for the serving fabric and
// its SLO-defense layer. Each scale builds whole gateway/master pairs. A pair
// is a defended master (breaker, hedging, retry budget) with a local expert
// and snapshot-serving workers over real TCP, every worker link through its
// own chaos proxy, served over the fabric by a cluster.Node and fronted by
// its own gateway (degraded mode, brownout controller, response cache and
// coalescing on) whose front master (cluster.NewFront) routes across EVERY
// master over supervised peer links. Gateways discover the masters through
// the announce gossip, so the membership layer is on the measured path.
// Offered load is the open-loop generator's (load.go) at a fixed per-pair
// rate, spread round-robin over the gateways; every arrival is a fresh row
// no cache has seen, so every request reaches a master and its workers.
// ScalingX is aggregate goodput at the largest scale over the smallest.
//
// One timeline per scale, in fleetActs equal acts: healthy; pair 0's first
// worker link stalled (bytes stop, connections stay up: the slow-expert
// regime of hedging and the quorum soft deadline); its second worker's link
// reset as well (the flaky-link regime of the breaker and the retry budget);
// every link healed; and the wire hot-swap — new weights pushed to every
// worker, then every master, each gateway cutting over with SetModelVersion
// last, the documented rollout order. The window is read in fleetIntervals
// buckets.
//
// The verdicts: faults thin answers and never stop them (no interval with
// zero goodput); tails come back down after the heal instead of ratcheting
// (Recovered); and the rollout hard-fails no request and leaves no
// stale-version cache entry, the versioned-put guard's reason to exist.
// Deadline misses under the faults are the SLO layer's business, reported
// beside hard failures and not charged to the swap.

const (
	fleetActs      = 5  // healthy, stall, reset, heal, swap
	fleetIntervals = 10 // time-series buckets per scale, two per act
)

// benchSpec is the expert every pair serves: one untrained paper-shaped MLP.
// Weights are irrelevant to throughput; the FLOPs are real.
var benchSpec = nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "tp", Input: 64, Width: 128, Layers: 3, Classes: 10}}

// FleetConfig sizes one fleet run. Zero fields take the defaults (400 req/s
// per pair, 8s per scale, 250ms deadline, scales 1/2/4, 2 workers per pair,
// 2ms one-way link delay).
type FleetConfig struct {
	PairQPS        int           // offered Poisson rate per gateway/master pair
	Duration       time.Duration // measured window per scale
	Deadline       time.Duration // per-request deadline (and gateway SLO target)
	Scales         []int         // pair counts to run, ascending
	WorkersPerPair int           // workers per master, each behind a chaos proxy; at least 2
	NetDelay       time.Duration // one-way delay injected on every worker link; < 0 = none
	MaxBatch       int           // gateway row budget
	CacheSize      int           // per-gateway response-cache entries
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
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// FleetInterval is one bucket of a scale's time series: the generator's Load
// for the bucket plus what the drill reads off the fleet. HedgeFired and
// BudgetDenied are deltas within the bucket, summed over the pair masters;
// BrownoutLevel is the highest gateway's, sampled at the bucket's end;
// MasterShare is each pair master's fraction of the fabric requests the
// masters served within the bucket (their "requests" deltas), in pair order.
type FleetInterval struct {
	T0Sec float64 `json:"t0_sec"`
	Load
	SLOBurn       float64   `json:"slo_burn"` // (timeouts+shed+errors) / offered
	HedgeFired    int       `json:"hedge_fired"`
	BudgetDenied  int       `json:"budget_denied"`
	BrownoutLevel int       `json:"brownout_level"`
	MasterShare   []float64 `json:"master_share"`
}

// FleetSwap is the hot-swap outcome at one scale: the wire rollout judged by
// what it must NOT do — hard-fail requests or leave version-A entries in any
// gateway cache.
type FleetSwap struct {
	AtSec          float64 `json:"at_sec"`
	PushMs         float64 `json:"push_ms"` // wall time for the worker+master+gateway rollout
	FailedRequests int     `json:"failed_requests"`
	StalePuts      int64   `json:"stale_puts"`
	StaleEntries   int     `json:"stale_entries"`
	Invalidations  int64   `json:"invalidations"`
	Version        string  `json:"version"` // fleet-wide version after cutover ("" = disagreement)
}

// FleetScale is the measured result at one pair count: the whole window's
// Load, its time series, the hedge totals over the pair masters, the fault
// verdict and the swap outcome.
type FleetScale struct {
	Pairs int `json:"pairs"`
	Load
	Intervals            []FleetInterval `json:"intervals"`
	HedgeFired           int             `json:"hedge_fired"`
	HedgeWon             int             `json:"hedge_won"`
	HedgeWasted          int             `json:"hedge_wasted"`
	BudgetDenied         int             `json:"budget_denied"`
	ZeroGoodputIntervals int             `json:"zero_goodput_intervals"`
	BaselineP99Ms        float64         `json:"baseline_p99_ms"` // worst interval before the first fault
	FinalP99Ms           float64         `json:"final_p99_ms"`    // the last interval's
	Recovered            bool            `json:"recovered"`
	Swap                 FleetSwap       `json:"swap"`
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
	Scales         []FleetScale `json:"scales"`
	ScalingX       float64      `json:"scaling_x"` // goodput(largest)/goodput(smallest)
}

func (r *FleetReport) String() string {
	var b strings.Builder
	act := r.DurationSec / fleetActs
	fmt.Fprintf(&b, "fleet: %d req/s per pair for %.0fs per scale, %.0fms deadline, %d workers/pair, %.2fms link delay\n",
		r.PairQPS, r.DurationSec, r.DeadlineMs, r.WorkersPerPair, r.NetDelayMs)
	fmt.Fprintf(&b, "  acts: pair 0 worker 0 stalled at %.1fs, worker 1 reset at %.1fs, all healed at %.1fs, hot-swap at %.1fs\n",
		act, 2*act, 3*act, 4*act)
	for _, s := range r.Scales {
		fmt.Fprintf(&b, "  %d pair(s): %d offered, %.1f goodput, %d degraded, %d t/o, %d shed, %d err, p50 %.2fms p99 %.2fms\n",
			s.Pairs, s.Offered, s.GoodputQPS, s.Degraded, s.TimedOut, s.Shed, s.Errors, s.P50Ms, s.P99Ms)
		fmt.Fprintf(&b, "    %6s %8s %6s %6s %5s %5s %5s %8s %8s %6s %6s %6s %3s %6s\n",
			"t0", "goodput", "compl", "degr", "shed", "t/o", "err", "p50ms", "p99ms", "burn", "hedge", "denied", "bl", "minsh")
		for _, iv := range s.Intervals {
			fmt.Fprintf(&b, "    %5.1fs %8.1f %6d %6d %5d %5d %5d %8.2f %8.2f %5.1f%% %6d %6d %3d %6.3f\n",
				iv.T0Sec, iv.GoodputQPS, iv.Completed, iv.Degraded, iv.Shed, iv.TimedOut, iv.Errors,
				iv.P50Ms, iv.P99Ms, iv.SLOBurn*100, iv.HedgeFired, iv.BudgetDenied, iv.BrownoutLevel, slices.Min(iv.MasterShare))
		}
		fmt.Fprintf(&b, "    verdict: %d zero-goodput intervals, p99 %.2fms baseline → %.2fms final (recovered=%v); hedges %d fired (%d won, %d wasted), %d budget denials\n",
			s.ZeroGoodputIntervals, s.BaselineP99Ms, s.FinalP99Ms, s.Recovered, s.HedgeFired, s.HedgeWon, s.HedgeWasted, s.BudgetDenied)
		fmt.Fprintf(&b, "    swap: %s in %.0fms, %d failed, %d stale\n",
			s.Swap.Version, s.Swap.PushMs, s.Swap.FailedRequests, s.Swap.StaleEntries)
	}
	fmt.Fprintf(&b, "  scaling: %.2fx aggregate goodput from %d to %d pair(s)",
		r.ScalingX, r.Scales[0].Pairs, r.Scales[len(r.Scales)-1].Pairs)
	return b.String()
}

// RunFleetBench runs every configured scale and reduces the results. Setup
// failures are errors; a poor scaling number or verdict is a result, judged
// by EvaluateFleetCheck and the bench-fleet caller.
func RunFleetBench(cfg FleetConfig) (*FleetReport, error) {
	cfg = cfg.normalized()
	if cfg.WorkersPerPair < 2 {
		return nil, fmt.Errorf("bench: fleet needs 2 workers per pair, one to stall and one to reset; got %d", cfg.WorkersPerPair)
	}
	report := &FleetReport{
		PairQPS:        cfg.PairQPS,
		DurationSec:    cfg.Duration.Seconds(),
		DeadlineMs:     configMs(cfg.Deadline),
		NetDelayMs:     configMs(cfg.NetDelay),
		WorkersPerPair: cfg.WorkersPerPair,
		MaxBatch:       cfg.MaxBatch,
		CacheSize:      cfg.CacheSize,
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

// fleetPair is one master's worth of the fleet: a defended master with a
// local expert, its workers (direct addresses kept for model pushes), every
// worker link through its own chaos proxy, and the cluster.Node serving the
// master over the fabric at addr. The proxy's latency injector is the edge
// link — bare loopback has none of the physics the serving stack exists for
// (TeamNet deploys over edge WiFi, paper §V, where every round trip costs
// milliseconds) — and the handle the drill stalls, resets and heals.
type fleetPair struct {
	master      *cluster.Master
	workers     []*cluster.Node
	workerAddrs []string
	proxies     []*chaos.Proxy
	netDelay    time.Duration
	srv         *cluster.Node
	addr        string
}

// buildFleetPair assembles pair idx, everything labelled vA, and serves its
// master over the fabric. Worker w is node idx*100+w+1 and serves benchSpec
// built from the pair's seed+1+w.
func buildFleetPair(cfg FleetConfig, idx int) (*fleetPair, error) {
	seed := cfg.Seed + int64(idx)*100
	local, err := benchSpec.Build(tensor.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	p := &fleetPair{master: cluster.NewMaster(local, benchSpec.MLP.Classes), netDelay: cfg.NetDelay}
	p.srv = cluster.NewNode(cluster.RoleMaster, p.master, idx+1)
	defend(p.master, cfg.Deadline)
	vA := cluster.Model{Version: "vA"} // no snapshot: label the weights built here
	err = p.master.SetLocal(vA)
	for w := 0; w < cfg.WorkersPerPair && err == nil; w++ {
		err = p.addWorker(idx*100+w+1, seed+1+int64(w), vA)
	}
	if err == nil {
		p.addr, err = p.srv.Listen("127.0.0.1:0")
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *fleetPair) addWorker(id int, seed int64, model cluster.Model) error {
	expert, err := benchSpec.Build(tensor.NewRNG(seed))
	if err != nil {
		return err
	}
	worker := cluster.NewWorker(expert, id)
	p.workers = append(p.workers, worker)
	if err := worker.Swap(model); err != nil {
		return err
	}
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	p.workerAddrs = append(p.workerAddrs, addr)
	// The delay is charged per forwarded chunk, so back-to-back pipelined
	// frames share one delay while serial round trips each pay their own —
	// the same physics as a real high-RTT link.
	proxy := chaos.New(addr, p.linkPlan()...)
	p.proxies = append(p.proxies, proxy)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	return p.master.Connect(paddr)
}

// linkPlan is a link's healthy plan (the injected delay alone) plus faults.
func (p *fleetPair) linkPlan(faults ...chaos.Fault) []chaos.Fault {
	if p.netDelay > 0 {
		return append([]chaos.Fault{{Mode: chaos.Latency, Delay: p.netDelay}}, faults...)
	}
	return faults
}

// setLink replaces worker w's link plan: healthy with no faults given.
func (p *fleetPair) setLink(w int, faults ...chaos.Fault) {
	p.proxies[w].SetPlan(p.linkPlan(faults...)...)
}

func (p *fleetPair) close() {
	p.srv.Close()
	p.master.Close()
	for _, x := range p.proxies {
		x.Close()
	}
	for _, w := range p.workers {
		w.Close()
	}
}

// defend turns on the SLO-defense layer the drill exercises: supervisor with
// a fast breaker, hedging and the shared retry budget.
func defend(m *cluster.Master, deadline time.Duration) {
	// The per-peer timeout must undercut the quorum soft deadline (~80% of
	// the request deadline): a stalled peer has to FAIL its round trip — and
	// feed the breaker toward quarantine — before the partial-answer path
	// cancels it as a mere caller abort. At half the deadline, stalls are
	// classified as peer faults within a few batches and the fleet stops
	// paying the soft wait; at the full deadline they never would be.
	m.SetTimeout(deadline / 2)
	m.SetSupervisor(cluster.SupervisorConfig{
		MaxRetries:       1,
		FailureThreshold: 3,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 25 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 100 * time.Millisecond, Max: 500 * time.Millisecond},
	})
	m.SetHedge(true)
	m.SetRetryBudget(cluster.NewRetryBudget(0))
}

// fleetSample is the fleet's counters read at one interval's end.
type fleetSample struct {
	hedgeFired, budgetDenied, brownoutLevel int64
	requests                                []int64 // each pair master's
}

func sampleFleet(fleet []*fleetPair, gateways []*serve.Gateway) fleetSample {
	s := fleetSample{
		hedgeFired:   fleetCounter(fleet, "hedge.fired"),
		budgetDenied: fleetCounter(fleet, "retry_budget.denied"),
	}
	for _, p := range fleet {
		s.requests = append(s.requests, p.srv.Metrics().Counter("requests").Value())
	}
	for _, gw := range gateways {
		s.brownoutLevel = max(s.brownoutLevel, gw.Metrics().Gauge("serve.brownout_level").Value())
	}
	return s
}

// fleetCounter sums one counter over the pair masters.
func fleetCounter(fleet []*fleetPair, name string) (n int64) {
	for _, p := range fleet {
		n += p.master.Metrics().Counter(name).Value()
	}
	return n
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
	gwCfg := serve.Config{
		MaxBatch: cfg.MaxBatch, QueueSize: 512, Workers: 4,
		Degraded: true, SLOTarget: cfg.Deadline, CacheSize: cfg.CacheSize, Coalesce: true,
	}
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

	// Every row is fresh, so no cache answers for a master. Warmup dials
	// every fabric link and every peer link and seeds the rtt state.
	rng := tensor.NewRNG(cfg.Seed + 7)
	fresh := func(int) *tensor.Tensor { return rng.Randn(1, benchSpec.MLP.Input) }
	for _, gw := range gateways {
		for i := 0; i < 4*pairs; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := gw.Predict(ctx, fresh(i))
			cancel()
			if err != nil {
				return nil, fmt.Errorf("bench: fleet warmup: %w", err)
			}
		}
	}

	// --- the load, the acts and a counter sample at every interval boundary
	// (the last once its requests have drained); a sample due with an act
	// reads the counters before it ------------------------------------------
	d := cfg.Duration
	at := func(act int) time.Duration { return time.Duration(act) * d / fleetActs }
	swap := FleetSwap{AtSec: at(4).Seconds()}
	var swapErr error
	load := loadSpec{
		qps: cfg.PairQPS * pairs, window: d, deadline: cfg.Deadline, seed: cfg.Seed + 3,
		bucket: d / fleetIntervals, pick: fresh, call: predict(gateways...),
	}
	n, width := load.buckets()
	samples := make([]fleetSample, n)
	for i := 0; i < n-1; i++ {
		load.timeline = append(load.timeline, step{time.Duration(i+1) * width, func() { samples[i] = sampleFleet(fleet, gateways) }})
	}
	load.timeline = append(load.timeline,
		step{at(1), func() { fleet[0].setLink(0, chaos.Fault{Mode: chaos.Stall, Prob: 1}) }},
		step{at(2), func() { fleet[0].setLink(1, chaos.Fault{Mode: chaos.Reset, Prob: 1}) }},
		step{at(3), func() {
			for _, p := range fleet {
				for w := range p.proxies {
					p.setLink(w)
				}
			}
		}},
		step{at(4), func() { swap.PushMs, swapErr = fleetHotSwap(cfg, fleet, gateways, "vB") }},
	)
	sort.SliceStable(load.timeline, func(i, j int) bool { return load.timeline[i].at < load.timeline[j].at })
	prev := sampleFleet(fleet, gateways) // the warmup's counts are no interval's
	total, series := load.run()
	samples[n-1] = sampleFleet(fleet, gateways)
	if swapErr != nil {
		return nil, fmt.Errorf("bench: fleet hot-swap: %w", swapErr)
	}

	scale := &FleetScale{
		Pairs:        pairs,
		Load:         total,
		HedgeFired:   int(fleetCounter(fleet, "hedge.fired")),
		HedgeWon:     int(fleetCounter(fleet, "hedge.won")),
		HedgeWasted:  int(fleetCounter(fleet, "hedge.wasted")),
		BudgetDenied: int(fleetCounter(fleet, "retry_budget.denied")),
	}
	for i, l := range series {
		iv := FleetInterval{
			T0Sec:         (time.Duration(i) * width).Seconds(),
			Load:          l,
			HedgeFired:    int(samples[i].hedgeFired - prev.hedgeFired),
			BudgetDenied:  int(samples[i].budgetDenied - prev.budgetDenied),
			BrownoutLevel: int(samples[i].brownoutLevel),
			MasterShare:   make([]float64, pairs),
		}
		if l.Offered > 0 {
			iv.SLOBurn = float64(l.TimedOut+l.Shed+l.Errors) / float64(l.Offered)
		}
		var served int64
		for j, n := range samples[i].requests {
			served += n - prev.requests[j]
		}
		if served > 0 {
			for j, n := range samples[i].requests {
				iv.MasterShare[j] = float64(n-prev.requests[j]) / float64(served)
			}
		}
		prev = samples[i]
		scale.Intervals = append(scale.Intervals, iv)
	}
	scale.judge(fleetIntervals / fleetActs)

	// Hard failures are the swap verdict's numerator: the rollout must not
	// fail a single request. Deadline misses under the faults are reported,
	// not charged to the swap.
	swap.FailedRequests = total.Errors
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
	scale.Swap = swap
	return scale, nil
}

// judge reduces the time series to the fault verdict. Baseline is the worst
// p99 of the first healthy intervals, which end by the first fault; recovery
// means the final interval answers, with a p99 within 2× that baseline plus
// scheduler slack — tails must come back down after the heal, not ratchet.
func (s *FleetScale) judge(healthy int) {
	for i, iv := range s.Intervals {
		if iv.Completed == 0 {
			s.ZeroGoodputIntervals++
		}
		if i < healthy && iv.P99Ms > s.BaselineP99Ms {
			s.BaselineP99Ms = iv.P99Ms
		}
	}
	last := s.Intervals[len(s.Intervals)-1]
	s.FinalP99Ms = last.P99Ms
	s.Recovered = last.Completed > 0 && s.FinalP99Ms <= 2*s.BaselineP99Ms+5
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

// configMs echoes a configured delay or deadline into a report: milliseconds,
// a negative ("none") delay as 0.
func configMs(d time.Duration) float64 { return ms(max(d, 0)) }
