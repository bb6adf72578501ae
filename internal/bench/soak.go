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
	"github.com/teamnet/teamnet/internal/transport"
)

// Chaos soak: the acceptance harness for the SLO-defense layer. Where the
// serve benchmark measures one steady-state window, the soak holds Poisson
// load against the full production stack — real gateway (degraded mode and
// brownout controller on), real master (hedging and the shared retry budget
// on), real snapshot-serving workers, every worker link behind its own
// chaos proxy —
// for minutes, while a scripted fault timeline stalls one expert, resets
// another's link, and finally heals everything. The output is a time
// series, one row per interval: goodput, latency quantiles, SLO burn, shed
// rate, degraded-answer rate, hedge activity, brownout level.
//
// The defense claim the series must support (checked in Summary): goodput
// never reaches zero in any interval — faults thin answers, they do not
// stop them — and tail latency recovers after each fault instead of
// ratcheting up for the rest of the run.

// Soak fault actions, referenced by SoakEvent.Action.
const (
	// SoakStall stalls the target worker's link: bytes stop flowing,
	// connections stay up — the slow-expert regime hedging and the quorum
	// soft deadline exist for.
	SoakStall = "stall"
	// SoakReset resets the target worker's connections per chunk — the
	// flaky-link regime the breaker and retry budget exist for.
	SoakReset = "reset"
	// SoakHeal clears the target's fault plan (all workers when Worker < 0).
	SoakHeal = "heal"
)

// SoakEvent is one scripted fault: at offset At, apply Action to Worker
// (index into the worker fleet; < 0 targets every worker).
type SoakEvent struct {
	At     time.Duration `json:"at"`
	Action string        `json:"action"`
	Worker int           `json:"worker"`
}

// DefaultSoakTimeline is the canonical three-act script scaled to d: stall
// worker 0 at 25%, reset worker 1's link at 50%, heal everything at 75%.
// The first quarter is the healthy baseline; the last quarter must show
// recovery.
func DefaultSoakTimeline(d time.Duration) []SoakEvent {
	return []SoakEvent{
		{At: d / 4, Action: SoakStall, Worker: 0},
		{At: d / 2, Action: SoakReset, Worker: 1},
		{At: 3 * d / 4, Action: SoakHeal, Worker: -1},
	}
}

// SoakConfig sizes one soak run. Zero fields take the defaults (2m run, 5s
// intervals, 800 req/s offered, 250ms deadline, 3 workers, 2ms one-way
// link delay, the default timeline).
type SoakConfig struct {
	TargetQPS int           // offered Poisson arrival rate, requests/second
	Duration  time.Duration // total soak length
	Interval  time.Duration // time-series bucket width
	Deadline  time.Duration // per-request deadline (also the gateway's SLO target)
	Workers   int           // worker nodes, each behind its own chaos proxy
	NetDelay  time.Duration // one-way link delay injected on every healthy link
	MaxBatch  int           // gateway row budget
	QueueSize int           // gateway admission lane size
	GWWorkers int           // gateway dispatch workers
	Seed      int64
	Timeline  []SoakEvent // nil = DefaultSoakTimeline(Duration)
}

func (c SoakConfig) normalized() SoakConfig {
	if c.TargetQPS <= 0 {
		c.TargetQPS = 800
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Minute
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Interval > c.Duration {
		c.Interval = c.Duration
	}
	if c.Deadline <= 0 {
		c.Deadline = 250 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 3
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
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Timeline == nil {
		c.Timeline = DefaultSoakTimeline(c.Duration)
	}
	return c
}

// SoakInterval is one bucket of the time series. Offered counts arrivals in
// the bucket; completion fields count by finish time, so a request spans
// buckets only once. Cumulative gauge-like fields (HedgeFired, Degraded,
// BudgetDenied) are deltas within the bucket; BrownoutLevel is sampled at
// the bucket's end.
type SoakInterval struct {
	T0Sec         float64 `json:"t0_sec"`
	Offered       int     `json:"offered"`
	Completed     int     `json:"completed"`
	Degraded      int     `json:"degraded"` // completed with a partial ensemble
	TimedOut      int     `json:"timed_out"`
	Shed          int     `json:"shed"`
	Errors        int     `json:"errors"`
	GoodputQPS    float64 `json:"goodput_qps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	SLOBurn       float64 `json:"slo_burn"` // (timeouts+shed+errors) / offered
	HedgeFired    int     `json:"hedge_fired"`
	BudgetDenied  int     `json:"budget_denied"`
	BrownoutLevel int     `json:"brownout_level"`
}

// SoakSummary is the run's verdict against the SLO-defense acceptance
// criteria.
type SoakSummary struct {
	TotalOffered         int     `json:"total_offered"`
	TotalCompleted       int     `json:"total_completed"`
	TotalDegraded        int     `json:"total_degraded"`
	TotalShed            int     `json:"total_shed"`
	TotalTimedOut        int     `json:"total_timed_out"`
	TotalErrors          int     `json:"total_errors"`
	HedgeFired           int     `json:"hedge_fired"`
	HedgeWon             int     `json:"hedge_won"`
	HedgeWasted          int     `json:"hedge_wasted"`
	BudgetDenied         int     `json:"budget_denied"`
	MinGoodputQPS        float64 `json:"min_goodput_qps"`
	ZeroGoodputIntervals int     `json:"zero_goodput_intervals"`
	BaselineP99Ms        float64 `json:"baseline_p99_ms"` // worst pre-fault interval
	FinalP99Ms           float64 `json:"final_p99_ms"`    // last interval, after heal
	Recovered            bool    `json:"recovered"`
}

// SoakReport is the full soak output, written to BENCH_soak.json.
type SoakReport struct {
	TargetQPS   int            `json:"target_qps"`
	DurationSec float64        `json:"duration_sec"`
	IntervalSec float64        `json:"interval_sec"`
	DeadlineMs  float64        `json:"deadline_ms"`
	NetDelayMs  float64        `json:"net_delay_ms"`
	Workers     int            `json:"workers"`
	MaxBatch    int            `json:"max_batch"`
	Timeline    []SoakEvent    `json:"timeline"`
	Intervals   []SoakInterval `json:"intervals"`
	Summary     SoakSummary    `json:"summary"`
}

func (r *SoakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: %d req/s offered for %.0fs (%.0fs intervals), %.0fms deadline, %d workers, %.2fms link delay\n",
		r.TargetQPS, r.DurationSec, r.IntervalSec, r.DeadlineMs, r.Workers, r.NetDelayMs)
	for _, e := range r.Timeline {
		fmt.Fprintf(&b, "  t=%-5s %s worker %d\n", e.At, e.Action, e.Worker)
	}
	fmt.Fprintf(&b, "  %6s %8s %6s %6s %6s %5s %5s %8s %8s %6s %6s %3s\n",
		"t0", "goodput", "compl", "degr", "shed", "t/o", "err", "p50ms", "p99ms", "burn", "hedge", "bl")
	for _, iv := range r.Intervals {
		fmt.Fprintf(&b, "  %5.0fs %8.1f %6d %6d %6d %5d %5d %8.2f %8.2f %5.1f%% %6d %3d\n",
			iv.T0Sec, iv.GoodputQPS, iv.Completed, iv.Degraded, iv.Shed, iv.TimedOut, iv.Errors,
			iv.P50Ms, iv.P99Ms, iv.SLOBurn*100, iv.HedgeFired, iv.BrownoutLevel)
	}
	s := r.Summary
	fmt.Fprintf(&b, "  summary: min goodput %.1f qps, %d zero-goodput intervals, p99 %.2fms baseline → %.2fms final (recovered=%v)\n",
		s.MinGoodputQPS, s.ZeroGoodputIntervals, s.BaselineP99Ms, s.FinalP99Ms, s.Recovered)
	fmt.Fprintf(&b, "  hedges: %d fired (%d won, %d wasted); %d degraded answers; %d budget denials",
		s.HedgeFired, s.HedgeWon, s.HedgeWasted, s.TotalDegraded, s.BudgetDenied)
	return b.String()
}

// soakBucket accumulates one interval concurrently.
type soakBucket struct {
	offered   atomic.Int64
	completed atomic.Int64
	degraded  atomic.Int64
	timedOut  atomic.Int64
	shed      atomic.Int64
	errorsN   atomic.Int64

	latMu sync.Mutex
	lats  []time.Duration

	// sampled at the bucket's end by the sampler goroutine
	hedgeFiredCum   int64
	budgetDeniedCum int64
	brownoutLevel   int64
}

// RunSoak builds the full stack, runs the load and the fault timeline, and
// reduces the buckets into a report. It returns an error only for setup
// failures — a miserable time series is a result, not an error; Summary is
// where it gets judged.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.normalized()

	// --- stack: workers, each behind its own chaos proxy -------------------
	master := cluster.NewMaster(nil, 10)
	// The per-peer timeout must undercut the quorum soft deadline (~80% of
	// the request deadline): a stalled peer has to FAIL its round trip — and
	// feed the breaker toward quarantine — before the partial-answer path
	// cancels it as a mere caller abort. At half the deadline, stalls are
	// classified as peer faults within a few batches and the fleet stops
	// paying the soft wait; at the full deadline they never would be.
	master.SetTimeout(cfg.Deadline / 2)
	master.SetSupervisor(cluster.SupervisorConfig{
		MaxRetries:       1,
		FailureThreshold: 3,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 25 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 100 * time.Millisecond, Max: 500 * time.Millisecond},
	})
	master.SetHedge(cluster.HedgeConfig{Enabled: true})
	master.SetRetryBudget(cluster.NewRetryBudget(cluster.RetryBudgetConfig{}))
	var closers []func()
	shutdown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	proxies := make([]*chaos.Proxy, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		expert, err := throughputExpert(cfg.Seed + int64(i))
		if err != nil {
			shutdown()
			return nil, err
		}
		worker := cluster.NewWorker(expert, i+1)
		addr, err := worker.Listen("127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, err
		}
		closers = append(closers, func() { worker.Close() })
		var plan []chaos.Fault
		if cfg.NetDelay > 0 {
			plan = append(plan, chaos.Fault{Mode: chaos.Latency, Delay: cfg.NetDelay})
		}
		proxy := chaos.New(addr, plan...)
		paddr, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, err
		}
		closers = append(closers, func() { proxy.Close() })
		proxies[i] = proxy
		if err := master.Connect(paddr); err != nil {
			shutdown()
			return nil, err
		}
	}
	closers = append(closers, func() { master.Close() })

	gw := serve.New(master, serve.Config{
		MaxBatch:  cfg.MaxBatch,
		QueueSize: cfg.QueueSize,
		Workers:   cfg.GWWorkers,
		Degraded:  true,
		SLOTarget: cfg.Deadline,
	})
	closers = append(closers, func() { gw.Close() })
	defer shutdown()

	// healthyPlan restores a link's baseline (delay-only) behavior.
	healthyPlan := func() []chaos.Fault {
		if cfg.NetDelay > 0 {
			return []chaos.Fault{{Mode: chaos.Latency, Delay: cfg.NetDelay}}
		}
		return nil
	}
	faultPlan := func(action string) []chaos.Fault {
		plan := healthyPlan()
		switch action {
		case SoakStall:
			plan = append(plan, chaos.Fault{Mode: chaos.Stall, Prob: 1})
		case SoakReset:
			plan = append(plan, chaos.Fault{Mode: chaos.Reset, Prob: 1})
		}
		return plan
	}

	// Warmup: dial every link, seed the rtt histograms hedging reads.
	rng := tensor.NewRNG(cfg.Seed + 1)
	rows := make([]*tensor.Tensor, 64)
	for i := range rows {
		rows[i] = rng.Randn(1, 64)
	}
	for i := 0; i < 30; i++ {
		if _, _, err := master.Infer(rows[i%len(rows)]); err != nil {
			return nil, fmt.Errorf("bench: soak warmup: %w", err)
		}
	}

	// --- buckets, fault scheduler, counter sampler -------------------------
	nBuckets := int((cfg.Duration + cfg.Interval - 1) / cfg.Interval)
	buckets := make([]*soakBucket, nBuckets)
	for i := range buckets {
		buckets[i] = &soakBucket{}
	}
	start := time.Now()
	bucketAt := func(t time.Time) *soakBucket {
		idx := int(t.Sub(start) / cfg.Interval)
		if idx < 0 {
			idx = 0
		}
		if idx >= nBuckets {
			idx = nBuckets - 1
		}
		return buckets[idx]
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // fault timeline
		defer aux.Done()
		for _, ev := range cfg.Timeline {
			select {
			case <-time.After(time.Until(start.Add(ev.At))):
			case <-stop:
				return
			}
			targets := []int{ev.Worker}
			if ev.Worker < 0 {
				targets = targets[:0]
				for i := range proxies {
					targets = append(targets, i)
				}
			}
			for _, w := range targets {
				if w < 0 || w >= len(proxies) {
					continue
				}
				if ev.Action == SoakHeal {
					proxies[w].SetPlan(healthyPlan()...)
				} else {
					proxies[w].SetPlan(faultPlan(ev.Action)...)
				}
			}
		}
	}()
	aux.Add(1)
	go func() { // per-interval counter sampler
		defer aux.Done()
		for i := 0; i < nBuckets; i++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(i+1) * cfg.Interval))):
			case <-stop:
				return
			}
			b := buckets[i]
			b.hedgeFiredCum = master.Counters().Counter("hedge.fired").Value()
			b.budgetDeniedCum = master.Counters().Counter("retry_budget.denied").Value()
			b.brownoutLevel = gw.Gauges().Gauge("serve.brownout_level").Value()
		}
	}()

	// --- open-loop Poisson load through the gateway ------------------------
	fire := func(x *tensor.Tensor) {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
		defer cancel()
		qs := time.Now()
		res, err := gw.Predict(ctx, x)
		done := time.Now()
		b := bucketAt(done)
		switch {
		case err == nil:
			b.completed.Add(1)
			if res.Degraded {
				b.degraded.Add(1)
			}
			b.latMu.Lock()
			b.lats = append(b.lats, done.Sub(qs))
			b.latMu.Unlock()
		case errors.Is(err, serve.ErrQueueFull):
			b.shed.Add(1)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			b.timedOut.Add(1)
		default:
			b.errorsN.Add(1)
		}
	}
	arrivalRNG := rand.New(rand.NewSource(cfg.Seed + 2))
	end := start.Add(cfg.Duration)
	next := start
	sent := 0
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
		now := time.Now()
		bucketAt(now).offered.Add(1)
		x := rows[sent%len(rows)]
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(x)
		}()
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	// --- reduce ------------------------------------------------------------
	report := &SoakReport{
		TargetQPS:   cfg.TargetQPS,
		DurationSec: cfg.Duration.Seconds(),
		IntervalSec: cfg.Interval.Seconds(),
		DeadlineMs:  float64(cfg.Deadline.Microseconds()) / 1e3,
		NetDelayMs:  float64(cfg.NetDelay.Microseconds()) / 1e3,
		Workers:     cfg.Workers,
		MaxBatch:    cfg.MaxBatch,
		Timeline:    cfg.Timeline,
		Intervals:   make([]SoakInterval, nBuckets),
	}
	var prevHedge, prevDenied int64
	for i, b := range buckets {
		sort.Slice(b.lats, func(x, y int) bool { return b.lats[x] < b.lats[y] })
		iv := SoakInterval{
			T0Sec:         (time.Duration(i) * cfg.Interval).Seconds(),
			Offered:       int(b.offered.Load()),
			Completed:     int(b.completed.Load()),
			Degraded:      int(b.degraded.Load()),
			TimedOut:      int(b.timedOut.Load()),
			Shed:          int(b.shed.Load()),
			Errors:        int(b.errorsN.Load()),
			GoodputQPS:    float64(b.completed.Load()) / cfg.Interval.Seconds(),
			P50Ms:         ms(percentile(b.lats, 0.50)),
			P99Ms:         ms(percentile(b.lats, 0.99)),
			HedgeFired:    int(b.hedgeFiredCum - prevHedge),
			BudgetDenied:  int(b.budgetDeniedCum - prevDenied),
			BrownoutLevel: int(b.brownoutLevel),
		}
		if iv.Offered > 0 {
			iv.SLOBurn = float64(iv.TimedOut+iv.Shed+iv.Errors) / float64(iv.Offered)
		}
		prevHedge, prevDenied = b.hedgeFiredCum, b.budgetDeniedCum
		report.Intervals[i] = iv
	}
	report.Summary = summarize(cfg, report.Intervals, master)
	return report, nil
}

// summarize reduces the time series into the acceptance verdict. Baseline
// is the worst pre-fault interval's p99; recovery means the final interval
// (after the heal event) answers with goodput and a p99 within 2× that
// baseline plus scheduler slack — tails must come back down, not ratchet.
func summarize(cfg SoakConfig, ivs []SoakInterval, master *cluster.Master) SoakSummary {
	s := SoakSummary{
		HedgeFired:    int(master.Counters().Counter("hedge.fired").Value()),
		HedgeWon:      int(master.Counters().Counter("hedge.won").Value()),
		HedgeWasted:   int(master.Counters().Counter("hedge.wasted").Value()),
		BudgetDenied:  int(master.Counters().Counter("retry_budget.denied").Value()),
		MinGoodputQPS: -1,
	}
	firstFault := cfg.Duration
	for _, ev := range cfg.Timeline {
		if ev.Action != SoakHeal && ev.At < firstFault {
			firstFault = ev.At
		}
	}
	for _, iv := range ivs {
		s.TotalOffered += iv.Offered
		s.TotalCompleted += iv.Completed
		s.TotalDegraded += iv.Degraded
		s.TotalShed += iv.Shed
		s.TotalTimedOut += iv.TimedOut
		s.TotalErrors += iv.Errors
		if s.MinGoodputQPS < 0 || iv.GoodputQPS < s.MinGoodputQPS {
			s.MinGoodputQPS = iv.GoodputQPS
		}
		if iv.Completed == 0 {
			s.ZeroGoodputIntervals++
		}
		if time.Duration(iv.T0Sec*float64(time.Second))+cfg.Interval <= firstFault && iv.P99Ms > s.BaselineP99Ms {
			s.BaselineP99Ms = iv.P99Ms
		}
	}
	if n := len(ivs); n > 0 {
		s.FinalP99Ms = ivs[n-1].P99Ms
		tolerance := 2*s.BaselineP99Ms + 5
		s.Recovered = ivs[n-1].Completed > 0 && s.FinalP99Ms <= tolerance
	}
	return s
}
