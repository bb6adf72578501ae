package cluster

import "sync"

// Global retry budget: the anti-retry-storm half of the SLO-defense layer.
// Each request's retries are bounded, but under a brownout they all fire at
// once across every peer, and the sum is a storm: the sick link gets
// hammered with exactly the repeated traffic that keeps it sick. A
// RetryBudget is one token bucket shared by every peer: normal request
// volume deposits a fraction of a token per round trip (~10% by default,
// the classic retry-budget ratio), every retry withdraws a whole token, and
// when the bucket runs dry the runtime degrades to first-attempt-only
// traffic instead of amplifying the overload. A quarantine probe spends
// nothing: ProbeBackoff already bounds it to one redial per open peer per
// backoff step, and the master whose traffic left for other masters is the
// one whose probes must still run.

// The budget's tuning. Every first-attempt round trip deposits the ratio a
// budget was built with (retryBudgetRatio unless NewRetryBudget says
// otherwise); retryBudgetBurst caps the bucket, the largest retry burst it
// funds after a quiet healthy period.
const (
	retryBudgetRatio = 0.1
	retryBudgetBurst = 16
)

// RetryBudget is the shared token bucket. Safe for concurrent use; the
// bucket starts full.
type RetryBudget struct {
	ratio, burst float64 // deposit per round trip, cap

	mu     sync.Mutex
	tokens float64
}

// NewRetryBudget returns a full bucket whose round trips each deposit ratio
// tokens (0 or less: the default, 0.1).
func NewRetryBudget(ratio float64) *RetryBudget {
	if ratio <= 0 {
		ratio = retryBudgetRatio
	}
	return newRetryBudget(ratio, retryBudgetBurst)
}

// newRetryBudget is a full bucket of any shape, for tests that need a tiny
// one.
func newRetryBudget(ratio, burst float64) *RetryBudget {
	return &RetryBudget{ratio: ratio, burst: burst, tokens: burst}
}

// Deposit credits one first-attempt round trip (its ratio in tokens).
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = min(b.tokens+b.ratio, b.burst)
}

// Allow withdraws one token for a retry. It reports false — and withdraws
// nothing — when the bucket holds less than a whole token: the caller should
// skip the retry.
func (b *RetryBudget) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
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
	return b.tokens
}

// SetRetryBudget installs (or, with nil, removes) the master-wide retry
// budget shared by every peer's retries. Affects peers connected before and
// after the call.
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

// allowSpend asks the budget for one retry token, counting the refusal under
// retry_budget.denied; a missing budget always allows.
func (p *peerConn) allowSpend() bool {
	b := p.m.budget.Load()
	if b == nil {
		return true
	}
	ok := b.Allow()
	p.budgetGauge(b)
	if !ok {
		p.m.metrics.Counter("retry_budget.denied").Inc()
	}
	return ok
}

// budgetGauge mirrors the balance onto the retry_budget.tokens gauge.
func (p *peerConn) budgetGauge(b *RetryBudget) {
	p.m.metrics.Gauge("retry_budget.tokens").Set(int64(b.Tokens()))
}
