package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Chaos soak: the acceptance harness for the SLO-defense layer. Where the
// serve benchmark measures one steady-state window, the soak holds the
// open-loop generator's load (load.go) against the full production stack —
// real gateway (degraded mode and brownout controller on), real master
// (hedging and the shared retry budget on), real snapshot-serving workers,
// every worker link behind its own chaos proxy (stack.go) — for minutes,
// while a scripted fault timeline stalls one expert, resets another's link,
// and finally heals everything. The output is a time series, one row per
// interval: goodput, latency quantiles, SLO burn, shed rate,
// degraded-answer rate, hedge activity, brownout level.
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
// link delay). The fault script is always DefaultSoakTimeline(Duration).
type SoakConfig struct {
	TargetQPS int           // offered Poisson arrival rate, requests/second
	Duration  time.Duration // total soak length
	Interval  time.Duration // time-series bucket width
	Deadline  time.Duration // per-request deadline (also the gateway's SLO target)
	Workers   int           // worker nodes, each behind its own chaos proxy
	NetDelay  time.Duration // one-way link delay injected on every healthy link
	MaxBatch  int           // gateway row budget
	Seed      int64
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
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// SoakInterval is one bucket of the time series: the generator's Load for
// the bucket plus what the soak reads off the stack. The cumulative counters
// (HedgeFired, BudgetDenied) are deltas within the bucket; BrownoutLevel is
// sampled at the bucket's end.
type SoakInterval struct {
	T0Sec float64 `json:"t0_sec"`
	Load
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

// soakSample is the stack's counters read at one interval's end.
type soakSample struct{ hedgeFired, budgetDenied, brownoutLevel int64 }

// applySoakEvent rewrites the link plan of the event's target worker(s).
func applySoakEvent(st *stack, ev SoakEvent) {
	var faults []chaos.Fault
	switch ev.Action {
	case SoakStall:
		faults = []chaos.Fault{{Mode: chaos.Stall, Prob: 1}}
	case SoakReset:
		faults = []chaos.Fault{{Mode: chaos.Reset, Prob: 1}}
	}
	for w := range st.proxies {
		if ev.Worker < 0 || ev.Worker == w {
			st.setLink(w, faults...)
		}
	}
}

// RunSoak builds the full stack, runs the load and the fault timeline, and
// reduces the buckets into a report. It returns an error only for setup
// failures — a miserable time series is a result, not an error; Summary is
// where it gets judged.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.normalized()
	st, err := newStack(stackSpec{workers: cfg.Workers, seed: cfg.Seed, netDelay: cfg.NetDelay, defend: cfg.Deadline})
	if err != nil {
		return nil, err
	}
	defer st.close()
	gwCfg := gatewayConfig(cfg.MaxBatch)
	gwCfg.Degraded = true
	gwCfg.SLOTarget = cfg.Deadline
	gw := serve.New(st.master, gwCfg)
	defer gw.Close()

	rows := randRows(tensor.NewRNG(cfg.Seed+1), 64)
	if err := st.warm(rows, 30); err != nil {
		return nil, fmt.Errorf("bench: soak warmup: %w", err)
	}

	// The script: the fault timeline, and a counter sample at every interval
	// boundary (the last interval is sampled once its requests have drained).
	timeline := DefaultSoakTimeline(cfg.Duration)
	load := loadSpec{
		qps: cfg.TargetQPS, window: cfg.Duration, deadline: cfg.Deadline, seed: cfg.Seed + 2,
		bucket: cfg.Interval, pick: cycle(rows), call: predict(gw),
	}
	nBuckets, _ := load.buckets()
	samples := make([]soakSample, nBuckets)
	sample := func(i int) {
		samples[i] = soakSample{
			hedgeFired:    st.master.Metrics().Counter("hedge.fired").Value(),
			budgetDenied:  st.master.Metrics().Counter("retry_budget.denied").Value(),
			brownoutLevel: gw.Metrics().Gauge("serve.brownout_level").Value(),
		}
	}
	for _, ev := range timeline {
		load.timeline = append(load.timeline, step{ev.At, func() { applySoakEvent(st, ev) }})
	}
	for i := 0; i < nBuckets-1; i++ {
		load.timeline = append(load.timeline, step{time.Duration(i+1) * cfg.Interval, func() { sample(i) }})
	}
	sort.SliceStable(load.timeline, func(i, j int) bool { return load.timeline[i].at < load.timeline[j].at })
	loads := load.run()
	sample(nBuckets - 1)

	report := &SoakReport{
		TargetQPS:   cfg.TargetQPS,
		DurationSec: cfg.Duration.Seconds(),
		IntervalSec: cfg.Interval.Seconds(),
		DeadlineMs:  configMs(cfg.Deadline),
		NetDelayMs:  configMs(cfg.NetDelay),
		Workers:     cfg.Workers,
		MaxBatch:    cfg.MaxBatch,
		Timeline:    timeline,
		Intervals:   make([]SoakInterval, nBuckets),
	}
	var prev soakSample
	for i, load := range loads {
		iv := SoakInterval{
			T0Sec:         (time.Duration(i) * cfg.Interval).Seconds(),
			Load:          load,
			HedgeFired:    int(samples[i].hedgeFired - prev.hedgeFired),
			BudgetDenied:  int(samples[i].budgetDenied - prev.budgetDenied),
			BrownoutLevel: int(samples[i].brownoutLevel),
		}
		if iv.Offered > 0 {
			iv.SLOBurn = float64(iv.TimedOut+iv.Shed+iv.Errors) / float64(iv.Offered)
		}
		prev = samples[i]
		report.Intervals[i] = iv
	}
	report.Summary = summarize(cfg, timeline, report.Intervals, st.master)
	return report, nil
}

// summarize reduces the time series into the acceptance verdict. Baseline
// is the worst pre-fault interval's p99; recovery means the final interval
// (after the heal event) answers with goodput and a p99 within 2× that
// baseline plus scheduler slack — tails must come back down, not ratchet.
func summarize(cfg SoakConfig, timeline []SoakEvent, ivs []SoakInterval, master *cluster.Master) SoakSummary {
	s := SoakSummary{
		HedgeFired:    int(master.Metrics().Counter("hedge.fired").Value()),
		HedgeWon:      int(master.Metrics().Counter("hedge.won").Value()),
		HedgeWasted:   int(master.Metrics().Counter("hedge.wasted").Value()),
		BudgetDenied:  int(master.Metrics().Counter("retry_budget.denied").Value()),
		MinGoodputQPS: -1,
	}
	firstFault := cfg.Duration
	for _, ev := range timeline {
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
