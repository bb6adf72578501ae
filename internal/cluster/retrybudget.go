package cluster

import (
	"sync"
	"time"
)

// Global retry budget: the anti-retry-storm half of the SLO-defense layer.
// Every retry mechanism in the runtime — in-request retries, quarantine
// probe redials, and hedged duplicates — is individually bounded, but under
// a brownout they all fire at once across every peer, and the sum is a
// storm: the sick link gets hammered with exactly the duplicate traffic
// that keeps it sick. A RetryBudget is one
// token bucket shared across all of them: normal request volume deposits a
// fraction of a token per round trip (~10% by default, the classic retry-
// budget ratio), every speculative send withdraws a whole token, and when
// the bucket runs dry the runtime degrades to first-attempt-only traffic
// instead of amplifying the overload. A small time-based trickle keeps
// quarantine probes alive even when request volume drops to zero, so a
// drained budget can never permanently strand a healed peer.

// The budget's tuning. Every first-attempt round trip deposits the ratio a
// budget was built with (retryBudgetRatio unless NewRetryBudget says
// otherwise); retryBudgetBurst caps the bucket, the largest retry burst it
// funds after a quiet healthy period; retryBudgetRefill tokens per second
// trickle in whatever the traffic, keeping probe redials alive with zero
// request volume.
const (
	retryBudgetRatio  = 0.1
	retryBudgetBurst  = 16
	retryBudgetRefill = 1
)

// RetryBudget is the shared token bucket. Safe for concurrent use; the
// bucket starts full so startup redials are never starved.
type RetryBudget struct {
	ratio, burst, refill float64 // deposit per round trip, cap, tokens/s trickle

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewRetryBudget returns a full bucket whose round trips each deposit ratio
// tokens (0 or less: the default, 0.1).
func NewRetryBudget(ratio float64) *RetryBudget {
	if ratio <= 0 {
		ratio = retryBudgetRatio
	}
	return newRetryBudget(ratio, retryBudgetBurst, retryBudgetRefill)
}

// newRetryBudget is a full bucket of any shape, for tests that need a tiny
// or non-refilling one.
func newRetryBudget(ratio, burst, refill float64) *RetryBudget {
	return &RetryBudget{ratio: ratio, burst: burst, refill: refill, tokens: burst, last: time.Now()}
}

// trickleLocked applies the time-based refill; mu must be held.
func (b *RetryBudget) trickleLocked(now time.Time) {
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.refill
	}
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Deposit credits one first-attempt round trip (its ratio in tokens).
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trickleLocked(time.Now())
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Allow withdraws one token for a speculative send (retry, probe redial,
// hedge). It reports false — and withdraws nothing — when the bucket holds
// less than a whole token: the caller should skip the send.
func (b *RetryBudget) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trickleLocked(time.Now())
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens reports the current balance (for the retry_budget.tokens gauge).
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trickleLocked(time.Now())
	return b.tokens
}

// SetRetryBudget installs (or, with nil, removes) the master-wide retry
// budget shared by every peer's retries, probe redials and hedges. Affects
// peers connected before and after the call.
func (m *Master) SetRetryBudget(b *RetryBudget) { m.budget.Store(b) }

// deposit credits the budget for one first-attempt round trip; nil-safe.
func (p *peerConn) deposit() {
	b := p.m.budget.Load()
	if b == nil {
		return
	}
	b.Deposit()
	p.budgetGauge(b)
}

// allowSpend asks the budget for one speculative-send token, counting the
// refusal under both the shared and the per-kind counter; a missing budget
// always allows.
func (p *peerConn) allowSpend(kind string) bool {
	b := p.m.budget.Load()
	if b == nil {
		return true
	}
	ok := b.Allow()
	p.budgetGauge(b)
	if !ok {
		p.m.metrics.Counter("retry_budget.denied").Inc()
		p.m.metrics.Counter("retry_budget.denied." + kind).Inc()
	}
	return ok
}

// budgetGauge mirrors the balance onto the retry_budget.tokens gauge.
func (p *peerConn) budgetGauge(b *RetryBudget) {
	p.m.metrics.Gauge("retry_budget.tokens").Set(int64(b.Tokens()))
}
