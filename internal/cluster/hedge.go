package cluster

import (
	"context"
	"time"

	"github.com/teamnet/teamnet/internal/trace"
)

// Hedged broadcast: the tail-tolerance half of the SLO-defense layer. On an
// edge link a peer's p99 can sit an order of magnitude above its p50 — one
// slow round trip drags the whole gather to the timeout even though the
// peer is healthy. Instead of waiting the full per-peer timeout, a hedged
// round trip arms a timer at the p95 of the peer's recent round trips (its
// cost estimate, cost.go) and, when it fires, launches a duplicate request
// down the same mux link. First reply wins; the loser is cancelled via its
// context, which the mux path treats as a caller abort — no breaker
// accounting, the link stays up, the late reply is dropped by id. The
// duplicate is only sent when the shared RetryBudget funds it, so hedging
// cannot become its own storm during a brownout (the exact moment
// everything looks slow), and only while the peer's duplicates pay: a peer
// is warm while one of its duplicates has won within costHorizon, and a cold
// peer fires one claimed trial per horizon and costWindow expiries (cost.go),
// whose win warms it.
//
// Counters: "hedge.fired" (duplicates launched), "hedge.won" (duplicate
// answered first), "hedge.wasted" (primary answered after the duplicate was
// already in flight).

// The hedge timer's tuning: the p95 of the peer's recent round trips once
// the window holds hedgeMinSamples, clamped into [hedgeMinDelay,
// hedgeMaxDelay] — never faster (sub-RTT duplicates are pure waste), never
// slower (whatever the window says).
const (
	hedgeQuantile   = 0.95
	hedgeMinSamples = 20
	hedgeMinDelay   = 2 * time.Millisecond
	hedgeMaxDelay   = 250 * time.Millisecond
)

// SetHedge turns per-peer request hedging on or off. Off by default: hedging
// spends bandwidth to buy tail latency, a trade the serving layer opts into
// explicitly. Affects peers connected before and after the call.
func (m *Master) SetHedge(on bool) { m.hedge.Store(on) }

// hedgeDelay resolves this peer's hedge timer from its recent round trips.
// ok is false when hedging is off or the window holds too few samples.
func (p *peerConn) hedgeDelay() (time.Duration, bool) {
	if !p.m.hedge.Load() {
		return 0, false
	}
	d, n := p.cost.quantile(hedgeQuantile)
	if n < hedgeMinSamples {
		return 0, false
	}
	return min(max(d, hedgeMinDelay), hedgeMaxDelay), true
}

// hedgeArmed reports whether a timer expiry may fire: while a duplicate won
// within costHorizon, or as a cold peer's trial, claimed once the expiries
// that did not fire make its last win or trial stale (cost.go).
func (p *peerConn) hedgeArmed() bool {
	now := time.Now().UnixNano()
	if won := p.won.at.Load(); won > 0 && now-won < int64(costHorizon) {
		return true
	}
	p.won.pass()
	return p.won.claim(now)
}

// hedgeWon counts a duplicate that answered first and warms the peer's
// hedge.
func (p *peerConn) hedgeWon() {
	p.m.metrics.Counter("hedge.won").Inc()
	p.won.mark(time.Now().UnixNano())
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
		adone, stop := joinDone(actx, p.m.done)
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
						p.hedgeWon()
					} else {
						p.m.metrics.Counter("hedge.wasted").Inc()
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
			if !p.available() || !p.hedgeArmed() {
				continue
			}
			if !p.allowSpend("hedge") {
				continue // budget dry: no duplicate, the primary rides alone
			}
			fired = true
			inflight++
			p.m.metrics.Counter("hedge.fired").Inc()
			tr.Record(peerCtx, "hedge", "", "", time.Now(), 0)
			go run(hctx, true)
		}
	}
	return Reply{}, firstErr
}
