package cluster

import (
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Hedging tests: the tail-tolerance half of the SLO-defense layer. A peer
// whose recent round trips say "you should have heard back by now" gets a
// duplicate request down the same mux link; first reply wins, the loser is
// a caller abort. These pin the timer, the counter accounting, the budget
// gate, the cold peer's trials, and that hedging never feeds the breaker.
// All run under -race via the verify target.

// TestHedgeDisabledByDefault: a fresh master never hedges, whatever the
// histograms say.
func TestHedgeDisabledByDefault(t *testing.T) {
	worker, addr := snapshotWorker(t, 110, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(111).Randn(1, 4)
	for i := 0; i < 30; i++ {
		if _, _, err := master.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	if got := master.Metrics().Counter("hedge.fired").Value(); got != 0 {
		t.Fatalf("hedge.fired = %d with hedging disabled", got)
	}
	_ = worker
}

// TestHedgeDelayFromRecentRoundTrips: the timer is the p95 of the peer's
// recent round trips, gated on hedgeMinSamples and clamped into
// [hedgeMinDelay, hedgeMaxDelay].
func TestHedgeDelayFromRecentRoundTrips(t *testing.T) {
	_, addr := snapshotWorker(t, 112, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	master.SetHedge(true)
	p := master.peers[0]

	if _, ok := p.hedgeDelay(); ok {
		t.Fatal("hedgeDelay trusted an empty window")
	}
	x := tensor.NewRNG(113).Randn(1, 4)
	for i := 0; i < hedgeMinSamples-1; i++ {
		if _, _, err := master.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := p.hedgeDelay(); ok {
		t.Fatalf("hedgeDelay trusted %d samples, want %d", hedgeMinSamples-1, hedgeMinSamples)
	}
	if _, _, err := master.Infer(x); err != nil {
		t.Fatal(err)
	}
	d, ok := p.hedgeDelay()
	if !ok {
		t.Fatal("hedgeDelay refused a warmed window")
	}
	// A loopback round trip against a tiny expert sits well under
	// hedgeMinDelay, so the clamp must hold; and nothing can exceed
	// hedgeMaxDelay.
	if d < 2*time.Millisecond || d > 250*time.Millisecond {
		t.Fatalf("hedge delay %v outside [2ms, 250ms]", d)
	}

	// Flip hedging off: the peer reads the master's switch immediately.
	master.SetHedge(false)
	if _, ok := p.hedgeDelay(); ok {
		t.Fatal("hedgeDelay still armed after SetHedge(false)")
	}
}

// TestHedgeFiresOnSlowPeer: warm the window over a transparent proxy,
// then inject latency an order of magnitude above the hedge delay. Every
// slow round trip must fire a duplicate, the race must account each fired
// hedge as won or wasted, answers stay correct, and the breaker never
// learns any of it happened.
func TestHedgeFiresOnSlowPeer(t *testing.T) {
	proxy, addr := chaosWorker(t, 114, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetTimeout(2 * time.Second)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	master.SetHedge(true)

	x := tensor.NewRNG(115).Randn(1, 4)
	for i := 0; i < hedgeMinSamples; i++ { // warmup: fast samples seed a ~hedgeMinDelay timer
		if _, _, err := master.Infer(x); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}
	if got := master.Metrics().Counter("hedge.fired").Value(); got != 0 {
		t.Fatalf("hedge fired %d times against a fast peer", got)
	}

	proxy.SetPlan(chaos.Fault{Mode: chaos.Latency, Delay: 80 * time.Millisecond})
	for i := 0; i < 3; i++ {
		probs, _, err := master.Infer(x)
		if err != nil {
			t.Fatalf("slow query %d: %v", i, err)
		}
		if probs.HasNaN() {
			t.Fatalf("slow query %d produced NaN", i)
		}
	}

	fired := master.Metrics().Counter("hedge.fired").Value()
	won := master.Metrics().Counter("hedge.won").Value()
	wasted := master.Metrics().Counter("hedge.wasted").Value()
	if fired == 0 {
		t.Fatal("no hedge fired against an 80ms peer with a ~2ms timer")
	}
	if won+wasted != fired {
		t.Fatalf("hedge accounting leak: fired=%d won=%d wasted=%d", fired, won, wasted)
	}
	h := master.Health()[0]
	if h.State != PeerHealthy || h.Failures != 0 || h.Trips != 0 {
		t.Fatalf("hedging fed the breaker: %+v", h)
	}
	// The race's losers were cancelled and reaped: nothing left in flight.
	waitForGaugeZero(t, master, "mux.inflight", 2*time.Second)
}

// TestHedgeFollowsASlowedPeer: the timer reads the peer's recent round
// trips, not its p95 since start, and a peer whose duplicates never win
// stops firing until a trial wins. After a long warm-up at loopback speed
// the link slows: within one window of round trips the delay covers the
// slowed round trip, long before a p95 since start would move. Duplicates
// ride the same slowed link behind their primaries, so none wins: the cold
// peer fires one claimed trial per costHorizon and costWindow unfired
// expiries, until a trial wins and warms the hedge.
func TestHedgeFollowsASlowedPeer(t *testing.T) {
	proxy, addr := chaosWorker(t, 118, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetTimeout(2 * time.Second)
	start := time.Now() // a new peer is cold: its first trial is due at once
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	master.SetHedge(true)
	p := master.peers[0]
	x := tensor.NewRNG(119).Randn(1, 4)
	infer := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := master.Infer(x); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
	}
	infer(1000)

	const delay = 3 * time.Millisecond // each direction: a round trip of over 2×delay
	proxy.SetPlan(chaos.Fault{Mode: chaos.Latency, Delay: delay})
	infer(costWindow)
	if d, ok := p.hedgeDelay(); !ok || d < 2*delay {
		t.Fatalf("after %d slowed round trips the hedge delay is %v (armed %v), want ≥ %v", costWindow, d, ok, 2*delay)
	}

	const slowed = 200
	infer(slowed)
	reg := master.Metrics()
	fired, won := reg.Counter("hedge.fired").Value(), reg.Counter("hedge.won").Value()
	// Each query expires the timer at most once, and a peer cold throughout
	// fires at most one trial per horizon since it connected.
	if elapsed := time.Since(start); won == 0 && fired > int64(elapsed/costHorizon)+1 {
		t.Fatalf("%d duplicates fired, none won, over %v: want ≤ %d", fired, elapsed, int64(elapsed/costHorizon)+1)
	}

	// Cold, a horizon after its last trial: of many expiries, one fires —
	// the trial, once costWindow of them have not.
	const expiries = 32
	p.won.at.Store(-time.Now().Add(-costHorizon).UnixNano())
	due := 0
	for range expiries {
		if p.hedgeArmed() {
			due++
		}
	}
	if won == 0 && due != 1 {
		t.Fatalf("a cold peer fired %d of %d expiries, want the one trial", due, expiries)
	}
	// A trial that wins warms it: every expiry within the horizon fires.
	p.hedgeWon()
	for i := range expiries {
		if !p.hedgeArmed() {
			t.Fatalf("expiry %d after a won trial did not fire", i)
		}
	}
}

// TestHedgeRespectsRetryBudget: with the shared budget dry, the timer still
// fires internally but no duplicate is sent — the denial is counted and the
// primary rides alone. Hedging must never become its own retry storm.
func TestHedgeRespectsRetryBudget(t *testing.T) {
	proxy, addr := chaosWorker(t, 116, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetTimeout(2 * time.Second)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	master.SetHedge(true)

	x := tensor.NewRNG(117).Randn(1, 4)
	for i := 0; i < hedgeMinSamples; i++ {
		if _, _, err := master.Infer(x); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}

	// Drain a near-zero-ratio budget dry, then slow the link.
	b := newRetryBudget(1e-9, 1)
	for b.Allow() {
	}
	master.SetRetryBudget(b)
	proxy.SetPlan(chaos.Fault{Mode: chaos.Latency, Delay: 60 * time.Millisecond})

	for i := 0; i < 3; i++ {
		if _, _, err := master.Infer(x); err != nil {
			t.Fatalf("slow query %d: %v", i, err)
		}
	}
	if fired := master.Metrics().Counter("hedge.fired").Value(); fired != 0 {
		t.Fatalf("a dry budget still funded %d hedges", fired)
	}
	if denied := master.Metrics().Counter("retry_budget.denied.hedge").Value(); denied == 0 {
		t.Fatal("budget denials were not counted under retry_budget.denied.hedge")
	}
}

// waitForGaugeZero polls a master gauge until it drains or the deadline
// passes.
func waitForGaugeZero(t *testing.T, m *Master, name string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if m.Metrics().Gauge(name).Value() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauge %s stuck at %d", name, m.Metrics().Gauge(name).Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
