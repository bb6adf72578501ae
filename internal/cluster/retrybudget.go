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

// RetryBudgetConfig tunes the shared budget. The zero value means "use the
// defaults" for every field.
type RetryBudgetConfig struct {
	// Ratio is the fraction of a token each first-attempt round trip
	// deposits — the steady-state retry allowance as a share of request
	// volume. Default 0.1.
	Ratio float64
	// Burst caps the bucket: the largest retry burst the budget will fund
	// after a quiet healthy period. Default 16.
	Burst float64
	// RefillPerSec is the traffic-independent trickle that keeps probe
	// redials alive with zero request volume. Default 1.
	RefillPerSec float64
}

func (c RetryBudgetConfig) normalized() RetryBudgetConfig {
	if c.Ratio <= 0 {
		c.Ratio = 0.1
	}
	if c.Burst <= 0 {
		c.Burst = 16
	}
	if c.RefillPerSec <= 0 {
		c.RefillPerSec = 1
	}
	return c
}

// RetryBudget is the shared token bucket. Safe for concurrent use; the
// bucket starts full so startup redials are never starved.
type RetryBudget struct {
	mu     sync.Mutex
	cfg    RetryBudgetConfig
	tokens float64
	last   time.Time
}

// NewRetryBudget returns a full bucket under cfg (zero fields defaulted).
func NewRetryBudget(cfg RetryBudgetConfig) *RetryBudget {
	cfg = cfg.normalized()
	return &RetryBudget{cfg: cfg, tokens: cfg.Burst, last: time.Now()}
}

// trickleLocked applies the time-based refill; mu must be held.
func (b *RetryBudget) trickleLocked(now time.Time) {
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.cfg.RefillPerSec
	}
	b.last = now
	if b.tokens > b.cfg.Burst {
		b.tokens = b.cfg.Burst
	}
}

// Deposit credits one first-attempt round trip (Ratio tokens).
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trickleLocked(time.Now())
	b.tokens += b.cfg.Ratio
	if b.tokens > b.cfg.Burst {
		b.tokens = b.cfg.Burst
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

// budgetRef shares one swappable budget between a master and its peers, the
// same pattern as tracerRef: SetRetryBudget takes effect on peers connected
// before and after the call. A nil budget (the default) means unlimited.
type budgetRef struct {
	mu sync.Mutex
	b  *RetryBudget
}

func (r *budgetRef) get() *RetryBudget {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.b
}

func (r *budgetRef) set(b *RetryBudget) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.b = b
}

// SetRetryBudget installs (or, with nil, removes) the master-wide retry
// budget shared by every peer's retries, probe redials and hedges. Affects
// peers connected before and after the call.
func (m *Master) SetRetryBudget(b *RetryBudget) { m.budget.set(b) }

// RetryBudget returns the installed budget (nil when unlimited).
func (m *Master) RetryBudget() *RetryBudget { return m.budget.get() }

// deposit credits the budget for one first-attempt round trip; nil-safe.
func (p *peerConn) deposit() {
	b := p.budget.get()
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
	b := p.budget.get()
	if b == nil {
		return true
	}
	ok := b.Allow()
	p.budgetGauge(b)
	if !ok {
		p.metrics.Counter("retry_budget.denied").Inc()
		p.metrics.Counter("retry_budget.denied." + kind).Inc()
	}
	return ok
}

// budgetGauge mirrors the balance onto the retry_budget.tokens gauge.
func (p *peerConn) budgetGauge(b *RetryBudget) {
	p.metrics.Gauge("retry_budget.tokens").Set(int64(b.Tokens()))
}
