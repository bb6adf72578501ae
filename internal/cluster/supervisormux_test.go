package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Supervisor × mux interaction tests (all under -race via the verify
// target): the breaker's half-open probe and the pipelined transport share
// one peer, and the seams between them — a probe redialing while mux
// traffic is still arriving, a breaker tripping with requests pending on
// the link — must never deadlock, double-count, or wedge the peer in a
// stale state.

// TestHalfOpenProbeRacesMuxTraffic heals a quarantined peer while a pool of
// goroutines hammers Infer nonstop: the probe's redial races live mux
// traffic on the same peerConn, and the peer must come back healthy with
// queries succeeding — no deadlock.
func TestHalfOpenProbeRacesMuxTraffic(t *testing.T) {
	proxy, addr := chaosWorker(t, 150, 1)

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetSupervisor(SupervisorConfig{
		MaxRetries:       0,
		FailureThreshold: 1,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
	})
	master.SetTimeout(500 * time.Millisecond)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}

	x := tensor.NewRNG(151).Randn(1, 4)
	if _, _, err := master.Infer(x); err != nil { // prove the mux link
		t.Fatalf("warmup: %v", err)
	}

	// Kill the link and let the breaker open.
	proxy.SetPlan(chaos.Fault{Mode: chaos.Reset, Prob: 1})
	master.Infer(x) //nolint:errcheck — this one is supposed to fail
	waitForPeerState(t, master, 0, PeerOpen, 5*time.Second)

	// Hammer from many goroutines straight through the heal: traffic keeps
	// arriving while the probe loop redials and flips the breaker. A failed
	// Infer against the open breaker returns without blocking, so back off
	// a moment before re-sending — on a single-CPU host eight pure spin
	// loops would otherwise starve the probe and worker goroutines of the
	// scheduler and the heal could never complete its ping round trip.
	var stop, successes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop.Load() == 0 {
				if _, _, err := master.Infer(x); err == nil {
					successes.Add(1)
				} else {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // some open-state traffic first
	proxy.Heal()
	waitForPeerState(t, master, 0, PeerHealthy, 10*time.Second)

	// The healed peer must actually serve the concurrent load.
	deadline := time.Now().Add(5 * time.Second)
	for successes.Load() == 0 {
		if time.Now().After(deadline) {
			stop.Store(1)
			wg.Wait()
			t.Fatal("no query succeeded after the peer healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(1)
	wg.Wait()

	h := master.Health()[0]
	if h.State != PeerHealthy {
		t.Fatalf("peer state %s after heal under load, want healthy", h.State)
	}
	if h.Trips == 0 || h.Probes == 0 || h.Reconnects == 0 {
		t.Fatalf("breaker cycle left no trace: %+v", h)
	}
	waitForGaugeZero(t, master, "mux.inflight", 2*time.Second)
}

// TestBreakerCyclesThroughFlappingProxy drives the full state cycle twice —
// healthy → open → (probe) → healthy → open → healthy — through a proxy
// that flaps between resetting and transparent, with best-effort traffic
// running the whole time. Every transition must be observable in Health and
// the peer must end healthy.
func TestBreakerCyclesThroughFlappingProxy(t *testing.T) {
	proxy, addr := chaosWorker(t, 152, 1)
	good := healthyWorker(t, 153, 2)

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetSupervisor(SupervisorConfig{
		MaxRetries:       0,
		FailureThreshold: 1,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
	})
	master.SetTimeout(300 * time.Millisecond)
	for _, a := range []string{addr, good} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	x := tensor.NewRNG(154).Randn(1, 4)
	if _, _, live, err := bestEffort(master, x); err != nil || live != 2 {
		t.Fatalf("warmup: live=%d err=%v", live, err)
	}

	for cycle := 0; cycle < 2; cycle++ {
		proxy.SetPlan(chaos.Fault{Mode: chaos.Reset, Prob: 1})
		deadline := time.Now().Add(5 * time.Second)
		for master.Health()[0].State != PeerOpen {
			if _, _, _, err := bestEffort(master, x); err != nil {
				t.Fatalf("cycle %d: best-effort failed with a healthy twin present: %v", cycle, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: breaker never opened: %+v", cycle, master.Health()[0])
			}
		}
		proxy.Heal()
		waitForPeerState(t, master, 0, PeerHealthy, 10*time.Second)
	}

	h := master.Health()[0]
	if h.Trips < 2 {
		t.Fatalf("two fault cycles recorded %d trips, want ≥ 2", h.Trips)
	}
	if h.Reconnects < 2 || h.Probes < 2 {
		t.Fatalf("probe loop trace too thin for two cycles: %+v", h)
	}
	// Full strength after the final heal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, live, err := bestEffort(master, x)
		if err != nil {
			t.Fatal(err)
		}
		if live == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live never returned to 2 (last %d)", live)
		}
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
