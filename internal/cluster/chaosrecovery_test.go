package cluster

import (
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Failure-matrix tests: the supervised runtime against the chaos proxy's
// fault modes. Each test puts one worker behind a misbehaving proxy and
// asserts the two degraded-mode invariants — a best-effort Do keeps
// answering with reduced live, and a quarantined peer rejoins rotation once
// the link heals — all under -race (see the verify target).

// chaosWorker starts a worker and a chaos proxy in front of it, returning
// the proxy (route master traffic through proxy address).
func chaosWorker(t *testing.T, seed int64, id int, plan ...chaos.Fault) (*chaos.Proxy, string) {
	t.Helper()
	w := NewWorker(tinyExpert(t, seed), id)
	workerAddr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	p := chaos.New(workerAddr, plan...)
	proxyAddr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, proxyAddr
}

// healthyWorker starts a plain worker.
func healthyWorker(t *testing.T, seed int64, id int) string {
	t.Helper()
	w := NewWorker(tinyExpert(t, seed), id)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return addr
}

func TestBestEffortUnderConnectionResets(t *testing.T) {
	_, sick := chaosWorker(t, 70, 1, chaos.Fault{Mode: chaos.Reset, Prob: 1})
	good := healthyWorker(t, 71, 2)

	master := NewMaster(tinyExpert(t, 72), 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(300 * time.Millisecond)
	for _, a := range []string{sick, good} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	x := tensor.NewRNG(73).Randn(1, 4)
	for i := 0; i < 6; i++ {
		probs, winners, live, err := bestEffort(master, x)
		if err != nil {
			t.Fatalf("query %d failed under resets: %v", i, err)
		}
		if live < 2 {
			t.Fatalf("query %d: live = %d, want ≥ 2 (local + healthy worker)", i, live)
		}
		if winners[0] == 1 {
			t.Fatalf("query %d won by the reset-everything peer", i)
		}
		if probs.HasNaN() {
			t.Fatalf("query %d produced NaN under resets", i)
		}
	}
	if h := master.Health()[0]; h.State != PeerOpen && h.State != PeerHalfOpen {
		t.Fatalf("reset-everything peer not quarantined: %+v", h)
	}
}

func TestBestEffortUnderStall(t *testing.T) {
	_, sick := chaosWorker(t, 74, 1, chaos.Fault{Mode: chaos.Stall, Prob: 1})
	good := healthyWorker(t, 75, 2)

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(100 * time.Millisecond) // bounds every stalled read
	for _, a := range []string{sick, good} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	x := tensor.NewRNG(76).Randn(1, 4)
	for i := 0; i < 4; i++ {
		start := time.Now()
		_, _, live, err := bestEffort(master, x)
		if err != nil {
			t.Fatalf("query %d failed under stall: %v", i, err)
		}
		if live < 1 {
			t.Fatalf("query %d: live = %d", i, live)
		}
		// Two attempts × 100ms deadline + backoff: a stalled peer may slow
		// a query but never wedge it.
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("query %d took %v under stall", i, elapsed)
		}
	}
}

func TestBestEffortUnderCorruption(t *testing.T) {
	_, sick := chaosWorker(t, 77, 1, chaos.Fault{Mode: chaos.Corrupt, Prob: 1})
	good := healthyWorker(t, 78, 2)

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(300 * time.Millisecond)
	for _, a := range []string{sick, good} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	x := tensor.NewRNG(79).Randn(1, 4)
	for i := 0; i < 6; i++ {
		_, _, live, err := bestEffort(master, x)
		if err != nil {
			t.Fatalf("query %d failed under corruption: %v", i, err)
		}
		if live < 1 {
			t.Fatalf("query %d: live = %d", i, live)
		}
	}
}

func TestSlowPeerRecoversAfterHeal(t *testing.T) {
	// Slow-then-recover: a peer behind 150ms injected latency against a
	// 50ms deadline times out into quarantine; healing the link must bring
	// it back without touching the master.
	proxy, sick := chaosWorker(t, 80, 1, chaos.Fault{Mode: chaos.Latency, Delay: 150 * time.Millisecond})
	good := healthyWorker(t, 81, 2)

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(50 * time.Millisecond)
	for _, a := range []string{sick, good} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	x := tensor.NewRNG(82).Randn(1, 4)
	for i := 0; i < 4; i++ {
		if _, _, live, err := bestEffort(master, x); err != nil || live < 1 {
			t.Fatalf("query %d under latency: live=%d err=%v", i, live, err)
		}
	}
	if h := master.Health()[0]; h.State != PeerOpen && h.State != PeerHalfOpen {
		t.Fatalf("slow peer not quarantined: %+v", h)
	}

	proxy.Heal()
	waitForPeerState(t, master, 0, PeerHealthy, 5*time.Second)
	_, _, live, err := bestEffort(master, x)
	if err != nil {
		t.Fatal(err)
	}
	if live != 2 {
		t.Fatalf("live after heal = %d, want 2", live)
	}
}

// TestEndToEndChaosRecovery is the acceptance scenario: three workers, one
// behind a proxy injecting 30% connection resets and 30% stalls. Every
// request must be served with live ≥ 2, the sick peer's breaker must open,
// and after the proxy heals the peer must rejoin rotation within the probe
// interval — no restarts, no hangs.
func TestEndToEndChaosRecovery(t *testing.T) {
	proxy, sick := chaosWorker(t, 83, 1,
		chaos.Fault{Mode: chaos.Reset, Prob: 0.3},
		chaos.Fault{Mode: chaos.Stall, Prob: 0.3},
	)
	good1 := healthyWorker(t, 84, 2)
	good2 := healthyWorker(t, 85, 3)

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(100 * time.Millisecond)
	for _, a := range []string{sick, good1, good2} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}

	x := tensor.NewRNG(86).Randn(1, 4)
	tripped := false
	for i := 0; i < 40; i++ {
		probs, _, live, err := bestEffort(master, x)
		if err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
		if live < 2 {
			t.Fatalf("query %d: live = %d, want ≥ 2", i, live)
		}
		if probs.HasNaN() {
			t.Fatalf("query %d produced NaN", i)
		}
		if master.Health()[0].State == PeerOpen || master.Health()[0].Trips > 0 {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatalf("sick peer's breaker never opened under 30%% resets + stalls: %+v", master.Health()[0])
	}

	// Heal the link: the probe loop must re-admit the peer within its
	// backoff ceiling (100ms in the test policy; allow scheduler slack).
	proxy.Heal()
	waitForPeerState(t, master, 0, PeerHealthy, 5*time.Second)
	h := master.Health()[0]
	if h.Reconnects == 0 || h.Probes == 0 {
		t.Fatalf("re-admission left no probe trace: %+v", h)
	}

	// Full strength restored.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, live, err := bestEffort(master, x)
		if err != nil {
			t.Fatal(err)
		}
		if live == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live never returned to 3 after heal (last %d)", live)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
