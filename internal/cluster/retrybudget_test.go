package cluster

import (
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Retry-budget tests: one shared token bucket must bound the sum of every
// peer's retries, so a brownout cannot amplify itself, and must never stand
// between a quarantined peer and its probe.
// All run under -race via the verify target.

// TestRetryBudgetBucketMath pins the token arithmetic without any cluster
// machinery: a full bucket funds burst sends, runs dry, and refills by
// ratio per deposit.
func TestRetryBudgetBucketMath(t *testing.T) {
	b := newRetryBudget(0.5, 2)
	if !b.Allow() || !b.Allow() {
		t.Fatal("a fresh bucket must fund burst sends")
	}
	if b.Allow() {
		t.Fatal("a drained bucket funded a third send")
	}
	b.Deposit() // +0.5: still under a whole token
	if b.Allow() {
		t.Fatal("half a token funded a send")
	}
	b.Deposit() // +0.5: exactly one token
	if !b.Allow() {
		t.Fatal("two deposits at Ratio 0.5 must fund one send")
	}
	// The cap holds: endless deposits never exceed burst.
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	if tok := b.Tokens(); tok > 2+1e-6 {
		t.Fatalf("bucket overflowed its burst cap: %v tokens", tok)
	}
}

// TestRetryBudgetDefaults: the documented constants, NewRetryBudget(0)'s
// default ratio, a caller's ratio kept, and a nil master budget means
// unlimited.
func TestRetryBudgetDefaults(t *testing.T) {
	if retryBudgetRatio != 0.1 || retryBudgetBurst != 16 {
		t.Fatalf("constants ratio=%v burst=%v", retryBudgetRatio, retryBudgetBurst)
	}
	if b := NewRetryBudget(0); b.ratio != 0.1 || b.burst != 16 || b.Tokens() != 16 {
		t.Fatalf("NewRetryBudget(0) = ratio %v burst %v tokens %v", b.ratio, b.burst, b.Tokens())
	}
	if b := NewRetryBudget(0.25); b.ratio != 0.25 {
		t.Fatalf("NewRetryBudget(0.25) deposits %v", b.ratio)
	}
	m := NewMaster(nil, 3)
	defer m.Close()
	if m.budget.Load() != nil {
		t.Fatal("a fresh master has a budget installed")
	}
	p := &peerConn{m: m}
	if !p.allowSpend() {
		t.Fatal("nil budget must allow every spend")
	}
}

// TestRetryBudgetStarvesRetries: against a link that resets every chunk, a
// dry budget must suppress the in-request retries (counted under
// retry_budget.denied) — first-attempt-only traffic instead of a storm. The
// breaker still learns about the faults and quarantines.
func TestRetryBudgetStarvesRetries(t *testing.T) {
	proxy, addr := chaosWorker(t, 120, 1)
	master := NewMaster(tinyExpert(t, 121), 3)
	defer master.Close()
	master.SetSupervisor(SupervisorConfig{
		MaxRetries:       2,
		FailureThreshold: 3,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 30 * time.Second, Max: 30 * time.Second},
	})
	master.SetTimeout(300 * time.Millisecond)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(122).Randn(1, 4)
	if _, _, err := master.Infer(x); err != nil { // warmup proves the link
		t.Fatal(err)
	}

	b := newRetryBudget(1e-9, 1)
	for b.Allow() {
	}
	master.SetRetryBudget(b)
	if master.budget.Load() != b {
		t.Fatal("SetRetryBudget did not install")
	}

	proxy.SetPlan(chaos.Fault{Mode: chaos.Reset, Prob: 1})
	for i := 0; i < 4; i++ {
		bestEffort(master, x) //nolint:errcheck — the local expert answers; the sick peer is the point
	}
	if denied := master.Metrics().Counter("retry_budget.denied").Value(); denied == 0 {
		t.Fatal("dry budget never denied a retry against a resetting link")
	}
}

// TestRetryBudgetDepositsOnTraffic: healthy round trips refill the bucket
// at its ratio, so a drained budget recovers once the storm passes and real
// traffic resumes.
func TestRetryBudgetDepositsOnTraffic(t *testing.T) {
	_, addr := snapshotWorker(t, 123, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	b := newRetryBudget(0.5, 4)
	for b.Allow() {
	}
	master.SetRetryBudget(b)

	x := tensor.NewRNG(124).Randn(1, 4)
	for i := 0; i < 6; i++ { // 6 deposits × 0.5 = 3 tokens
		if _, _, err := master.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	if tok := b.Tokens(); tok < 1 {
		t.Fatalf("six healthy round trips left only %v tokens", tok)
	}
	if !b.Allow() {
		t.Fatal("refilled budget refused a send")
	}
}

// TestDryBudgetLetsAProbeReadmit: a master whose traffic has gone elsewhere
// deposits nothing, so its bucket stays dry. A worker stalled behind a chaos
// proxy trips into quarantine; once the proxy heals, the quarantine probe
// alone must re-admit it — a probe spends no token.
func TestDryBudgetLetsAProbeReadmit(t *testing.T) {
	proxy, addr := chaosWorker(t, 125, 1)
	master := NewMaster(tinyExpert(t, 126), 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(50 * time.Millisecond)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	b := newRetryBudget(1e-9, 1)
	for b.Allow() {
	}
	master.SetRetryBudget(b)

	proxy.SetPlan(chaos.Fault{Mode: chaos.Stall, Prob: 1})
	x := tensor.NewRNG(127).Randn(1, 4)
	for i := 0; i < 4; i++ {
		bestEffort(master, x) //nolint:errcheck — the local expert answers; the stalled peer is the point
	}
	if h := master.Health()[0]; h.State != PeerOpen && h.State != PeerHalfOpen {
		t.Fatalf("stalled peer not quarantined: %+v", h)
	}
	proxy.Heal()
	waitForPeerState(t, master, 0, PeerHealthy, 5*time.Second)
	if _, _, live, err := bestEffort(master, x); err != nil || live != 2 {
		t.Fatalf("after the heal: live = %d, err = %v, want both experts", live, err)
	}
}
