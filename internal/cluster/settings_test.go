package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// TestSettingsReachConnectedPeersUnderTraffic: every peer setting lives once,
// on the master, and a peer reads it at each round trip. Queries run over two
// connected peers — one behind a latency proxy — while one goroutine cycles
// every setter; each query answers or fails with a peer or ctx error, and the
// race detector watches the reads. After the last set, queries observe every
// final value: the installed tracer records the span tree, and a dry budget's
// denials are counted.
func TestSettingsReachConnectedPeersUnderTraffic(t *testing.T) {
	_, fast := snapshotWorker(t, 130, 1)
	proxy, slow := chaosWorker(t, 131, 2, chaos.Fault{Mode: chaos.Latency, Delay: 2 * time.Millisecond})
	master := NewMaster(nil, 3)
	defer master.Close()
	for _, addr := range []string{fast, slow} {
		if err := master.Connect(addr); err != nil {
			t.Fatal(err)
		}
	}
	x := tensor.NewRNG(132).Randn(2, 4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answered atomic.Int64
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, err := master.Do(ctx, Request{X: x})
				cancel()
				switch {
				case err == nil:
					answered.Add(1)
				case errors.Is(err, context.DeadlineExceeded), strings.HasPrefix(err.Error(), "cluster: node "):
				default:
					errc <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		master.SetTimeout(time.Duration(i%3) * 250 * time.Millisecond)
		sup := fastSupervisor()
		sup.MaxRetries = i % 3
		master.SetSupervisor(sup)
		if i%2 == 0 {
			master.SetRetryBudget(NewRetryBudget(0))
			master.SetTracer(trace.New("cycle", 0))
		} else {
			master.SetRetryBudget(nil)
			master.SetTracer(nil)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("a query failed with neither a peer nor a ctx error: %v", err)
	}
	if answered.Load() == 0 {
		t.Fatal("no query answered while the settings cycled")
	}

	// The final values. The budget stays unlimited until both peers are
	// routed again, so a quarantined one can probe its way back.
	tr := trace.New("final", 0)
	master.SetTracer(tr)
	master.SetTimeout(2 * time.Second)
	master.SetSupervisor(fastSupervisor())
	master.SetRetryBudget(nil)
	waitForPeerState(t, master, 0, PeerHealthy, 2*time.Second)
	waitForPeerState(t, master, 1, PeerHealthy, 2*time.Second)

	if _, _, err := master.Infer(x); err != nil {
		t.Fatal(err)
	}
	ids := tr.TraceIDs(1)
	if len(ids) != 1 {
		t.Fatal("the tracer installed last recorded no trace")
	}
	tree := tr.Tree(ids[0])
	for _, span := range []string{"infer", "peer " + fast, "peer " + slow, "gate"} {
		if !strings.Contains(tree, span) {
			t.Fatalf("span tree lacks %q:\n%s", span, tree)
		}
	}

	// A dry budget installed last: the resetting peer's retries are denied
	// against it, and nothing it funds.
	dry := newRetryBudget(1e-9, 1)
	for dry.Allow() {
	}
	master.SetRetryBudget(dry)
	proxy.SetPlan(chaos.Fault{Mode: chaos.Reset, Prob: 1})
	denied := master.metrics.Counter("retry_budget.denied").Value()
	for i := 0; i < 3; i++ {
		if _, _, live, err := bestEffort(master, x); err != nil || live != 1 {
			t.Fatalf("best effort with one resetting peer: live=%d err=%v", live, err)
		}
	}
	if master.metrics.Counter("retry_budget.denied").Value() == denied {
		t.Fatal("no retry was denied against the dry budget installed last")
	}
	if tok := dry.Tokens(); tok >= 1 {
		t.Fatalf("the dry budget holds %v tokens", tok)
	}
}
