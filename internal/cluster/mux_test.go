package cluster

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Mux transport tests: many concurrent Infers share one link and match the
// locally computed answer bit-for-bit, link death fails every pending
// request fast while feeding the breaker exactly once, and a stale adopted
// connection is one link fault, not a verdict on the peer. All run under
// -race via the verify target.

// snapshotWorker starts a worker serving one seeded expert snapshot.
func snapshotWorker(t *testing.T, seed int64, id int) (*Node, string) {
	t.Helper()
	w := NewWorker(tinyExpert(t, seed), id)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, addr
}

// TestMuxConcurrentInfer is the acceptance check for the pipeline: many
// goroutines drive strict and best-effort requests through one mux link
// against a snapshot worker, every result matches the answer computed from the two
// snapshots in-process, the worker served every request, and the in-flight
// gauge drains back to zero.
func TestMuxConcurrentInfer(t *testing.T) {
	worker, addr := snapshotWorker(t, 90, 1)

	// Reference answer from the snapshots themselves; the remote expert
	// sees the input through the float32 wire codec, so the reference does.
	x := tensor.NewRNG(92).Randn(3, 4)
	localProbs, localEnt := nn.MustSnapshot(tinyExpert(t, 91)).PredictWithEntropy(x)
	wireX, _, err := transport.DecodeTensor(transport.EncodeTensor(x))
	if err != nil {
		t.Fatal(err)
	}
	remoteProbs, remoteEnt := nn.MustSnapshot(tinyExpert(t, 90)).PredictWithEntropy(wireX)
	wantProbs := tensor.New(3, 3)
	wantWinners := make([]int, 3)
	for b := range wantWinners {
		src := localProbs
		if remoteEnt.Data[b] < localEnt.Data[b] {
			src, wantWinners[b] = remoteProbs, 1
		}
		copy(wantProbs.RowSlice(b), src.RowSlice(b))
	}

	master := NewMaster(tinyExpert(t, 91), 3)
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}

	const goroutines, rounds = 16, 5
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var probs *tensor.Tensor
				var winners []int
				var err error
				if g%2 == 0 {
					probs, winners, err = master.Infer(x)
				} else {
					var live int
					probs, winners, live, err = bestEffort(master, x)
					if err == nil && live != 2 {
						t.Errorf("live = %d, want 2", live)
					}
				}
				if err != nil {
					errCh <- err
					return
				}
				for b := 0; b < x.Shape[0]; b++ {
					if winners[b] != wantWinners[b] {
						t.Errorf("winners[%d] = %d over mux, %d computed locally", b, winners[b], wantWinners[b])
						return
					}
					if !bytes.Equal(transport.EncodeTensor(probs), transport.EncodeTensor(wantProbs)) {
						t.Error("mux probs differ from the locally computed probs")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent infer over mux: %v", err)
	}

	if got := worker.Metrics().Counter("requests").Value(); got != goroutines*rounds {
		t.Fatalf("worker served %d requests, want %d", got, goroutines*rounds)
	}
	// The pipeline drained: nothing in flight, nothing queued.
	if v := master.Metrics().Gauge("mux.inflight").Value(); v != 0 {
		t.Fatalf("mux.inflight = %d after drain, want 0", v)
	}
	if v := master.Metrics().Gauge("mux.queue_depth").Value(); v != 0 {
		t.Fatalf("mux.queue_depth = %d after drain, want 0", v)
	}
}

// TestMuxLinkDeathFailsPendingAndTripsOnce kills a link mid-pipeline: after
// a proven warmup query the chaos proxy resets every chunk, and a burst of
// concurrent Infers must all fail fast — one link death is one breaker
// strike no matter how many requests were pending, so trips lands at
// exactly 1.
func TestMuxLinkDeathFailsPendingAndTripsOnce(t *testing.T) {
	proxy, sick := chaosWorker(t, 93, 1)

	master := NewMaster(nil, 3) // peer-only: a dead link fails Infer outright
	defer master.Close()
	master.SetSupervisor(SupervisorConfig{
		MaxRetries:       0,
		FailureThreshold: 1,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		// Probe far beyond the test horizon: the breaker must stay open so
		// the trip count is unambiguous.
		ProbeBackoff: &transport.Backoff{Base: 30 * time.Second, Max: 30 * time.Second},
	})
	master.SetTimeout(500 * time.Millisecond)
	if err := master.Connect(sick); err != nil {
		t.Fatal(err)
	}

	x := tensor.NewRNG(94).Randn(1, 4)
	if _, _, err := master.Infer(x); err != nil {
		t.Fatalf("warmup through transparent proxy: %v", err)
	}

	proxy.SetPlan(chaos.Fault{Mode: chaos.Reset, Prob: 1})
	const pending = 8
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, pending)
	for i := 0; i < pending; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = master.Infer(x)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for i, err := range errs {
		if err == nil {
			t.Fatalf("query %d succeeded across a dead link", i)
		}
	}
	// Fail-fast: the first error tears the pipeline down and fans out to
	// every waiter; nobody sits out a full per-request timeout chain.
	if elapsed > 3*time.Second {
		t.Fatalf("%d pending queries took %v to fail", pending, elapsed)
	}
	h := master.Health()[0]
	if h.Trips != 1 {
		t.Fatalf("breaker tripped %d times for one link death, want 1: %+v", h.Trips, h)
	}
	if h.State != PeerOpen {
		t.Fatalf("peer state %s after link death, want open", h.State)
	}
}

// TestMuxStaleAdoptedConnNoDowngrade reproduces a worker restarting between
// the master's eager Connect and its first query: the first mux frame dies
// on the stale adopted socket with a silent close. That is one link fault —
// the retry redials fresh and the restarted worker answers.
func TestMuxStaleAdoptedConnNoDowngrade(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	w1 := NewWorker(tinyExpert(t, 102), 1)
	if _, err := w1.Listen(addr); err != nil {
		t.Fatal(err)
	}

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetTimeout(2 * time.Second)
	if err := master.Connect(addr); err != nil { // eager dial: the soon-stale socket
		t.Fatal(err)
	}

	w1.Close() // restart: same address, new process, master's socket now dead
	w2 := NewWorker(tinyExpert(t, 102), 1)
	if _, err := w2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	x := tensor.NewRNG(103).Randn(1, 4)
	if _, _, err := master.Infer(x); err != nil {
		t.Fatalf("first query after worker restart: %v", err)
	}
	if got := w2.Metrics().Counter("requests").Value(); got != 1 {
		t.Fatalf("restarted worker served %d requests, want the one retry", got)
	}
	h := master.Health()[0]
	if h.State != PeerHealthy || h.Trips != 0 || h.Failures != 1 || h.Retries != 1 || h.Redials != 1 {
		t.Fatalf("want one link fault answered by one retry on one fresh dial: %+v", h)
	}
}
