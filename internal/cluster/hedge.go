package cluster

import (
	"context"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/trace"
)

// Hedged broadcast: the tail-tolerance half of the SLO-defense layer. On an
// edge link a peer's p99 can sit an order of magnitude above its p50 — one
// slow round trip drags the whole gather to the timeout even though the
// peer is healthy. Instead of waiting the full per-peer timeout, a hedged
// round trip arms a timer at the peer's own live p95 (read from the
// "peer.<addr>.rtt" histogram the runtime already records) and, when it
// fires, launches a duplicate request down the same mux link. First reply
// wins; the loser is cancelled via its context, which the mux path treats
// as a caller abort — no breaker accounting, the link stays up, the late
// reply is dropped by id. The duplicate is only sent when the shared
// RetryBudget funds it, so hedging cannot become its own storm during a
// brownout (the exact moment everything looks slow).
//
// Counters: "hedge.fired" (duplicates launched), "hedge.won" (duplicate
// answered first), "hedge.wasted" (primary answered after the duplicate was
// already in flight).

// HedgeConfig tunes per-peer request hedging. The zero value disables
// hedging; enabling it with zero fields uses the defaults.
type HedgeConfig struct {
	// Enabled turns hedging on. Off by default: hedging spends bandwidth to
	// buy tail latency, a trade the serving layer opts into explicitly.
	Enabled bool
	// Quantile of the peer's live rtt histogram that arms the hedge timer.
	// Default 0.95.
	Quantile float64
	// MinSamples is how many rtt observations a peer needs before its
	// histogram is trusted to seed timers. Default 20.
	MinSamples int
	// MinDelay / MaxDelay clamp the timer: never hedge faster than MinDelay
	// (default 2ms — sub-RTT duplicates are pure waste) and never wait
	// longer than MaxDelay (default 250ms) even if the histogram says so.
	MinDelay time.Duration
	MaxDelay time.Duration
}

func (c HedgeConfig) normalized() HedgeConfig {
	if c.Quantile <= 0 || c.Quantile > 1 {
		c.Quantile = 0.95
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.MinDelay <= 0 {
		c.MinDelay = 2 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 250 * time.Millisecond
	}
	return c
}

// hedgeRef shares one swappable hedge policy between a master and its
// peers, the tracerRef pattern: SetHedge affects peers connected before and
// after the call.
type hedgeRef struct {
	mu  sync.Mutex
	cfg HedgeConfig
}

func (r *hedgeRef) get() HedgeConfig {
	if r == nil {
		return HedgeConfig{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg
}

func (r *hedgeRef) set(cfg HedgeConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg = cfg
}

// SetHedge installs the hedging policy (zero fields defaulted). Affects
// peers connected before and after the call.
func (m *Master) SetHedge(cfg HedgeConfig) { m.hedge.set(cfg.normalized()) }

// Hedge returns the installed hedging policy.
func (m *Master) Hedge() HedgeConfig { return m.hedge.get() }

// hedgeDelay resolves this peer's hedge timer from its live rtt histogram:
// the configured quantile clamped into [MinDelay, MaxDelay]. ok is false
// when hedging is off or the peer has too few samples.
func (p *peerConn) hedgeDelay() (time.Duration, bool) {
	cfg := p.hedge.get()
	if !cfg.Enabled {
		return 0, false
	}
	h := p.metrics.Histogram("peer." + p.addr + ".rtt")
	if h.Count() < int64(cfg.MinSamples) {
		return 0, false
	}
	d := time.Duration(h.Quantile(cfg.Quantile))
	if d < cfg.MinDelay {
		d = cfg.MinDelay
	}
	if d > cfg.MaxDelay {
		d = cfg.MaxDelay
	}
	return d, true
}

// hedgeOutcome is one arm's result in the first-reply-wins race.
type hedgeOutcome struct {
	res   Reply
	err   error
	hedge bool // true for the duplicate arm
}

// muxHedged races a primary mux round trip against a delayed duplicate:
// launch the primary, arm the timer, and if the primary has not answered by
// then (and the retry budget funds it) launch a second identical request
// down the same pipelined link. The first success wins and cancels the
// other arm (a caller abort: no breaker accounting, the link survives). If
// the first arm to finish failed, the race keeps waiting on the other — a
// hedge doubles as an instant retry against a dying link.
func (p *peerConn) muxHedged(ctx context.Context, cfg SupervisorConfig, tr *trace.Tracer, peerCtx trace.Context, q peerQuery, delay time.Duration) (Reply, error) {
	outc := make(chan hedgeOutcome, 2)
	run := func(actx context.Context, hedged bool) {
		adone, stop := joinDone(actx, p.done)
		defer stop()
		res, err := p.muxAttempts(actx, adone, cfg, tr, peerCtx, q)
		outc <- hedgeOutcome{res: res, err: err, hedge: hedged}
	}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	go run(pctx, false)

	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C
	inflight := 1
	fired := false
	var firstErr error
	for inflight > 0 {
		select {
		case o := <-outc:
			inflight--
			if o.err == nil {
				// Winner: cancel the twin; its abort is not a peer fault.
				pcancel()
				hcancel()
				if fired {
					if o.hedge {
						p.metrics.Counter("hedge.won").Inc()
					} else {
						p.metrics.Counter("hedge.wasted").Inc()
					}
				}
				return o.res, nil
			}
			if firstErr == nil || !o.hedge {
				// Prefer reporting the primary arm's error.
				firstErr = o.err
			}
		case <-timerC:
			timerC = nil
			if !p.available() {
				continue
			}
			if !p.allowSpend("hedge") {
				continue // budget dry: no duplicate, the primary rides alone
			}
			fired = true
			inflight++
			p.metrics.Counter("hedge.fired").Inc()
			tr.Record(peerCtx, "hedge", "", "", time.Now(), 0)
			go run(hctx, true)
		}
	}
	return Reply{}, firstErr
}
