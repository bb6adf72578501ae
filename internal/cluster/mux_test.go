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
// request fast while feeding the breaker exactly once, and a stale link,
// closed or gone quiet, is one link fault, not a verdict on the peer. All run
// under -race via the verify target.

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
// the master's eager Connect and its first query: the link Connect dialed
// dies with a close its reader sees. That is one link fault, struck before
// any query, and the first query dials a fresh link to the restarted worker
// without a retry.
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
	// The link's reader hears the close and strikes once, before any query.
	for deadline := time.Now().Add(5 * time.Second); master.Health()[0].Failures != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the dead link cost no strike: %+v", master.Health()[0])
		}
	}
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
		t.Fatalf("restarted worker served %d requests, want 1", got)
	}
	h := master.Health()[0]
	if h.State != PeerHealthy || h.Trips != 0 || h.Failures != 1 || h.Retries != 0 || h.Redials != 1 {
		t.Fatalf("want one link fault answered on one fresh dial, without a retry: %+v", h)
	}
}

// TestMuxStalledLinkRetriesOnFreshDial covers the retry path on a stale
// link: after Connect the link goes quiet without closing, so only the first
// query finds out, by its timeout. That is one link fault; the query retries
// once on a fresh dial and is answered.
func TestMuxStalledLinkRetriesOnFreshDial(t *testing.T) {
	proxy, addr := chaosWorker(t, 106, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetTimeout(300 * time.Millisecond)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}

	// The link Connect dialed swallows the first request; the proxy heals
	// once it has, so the retry's fresh connection is transparent.
	proxy.SetPlan(chaos.Fault{Mode: chaos.Stall, Prob: 1})
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for proxy.Metrics().Counter("injected.stall").Value() == 0 {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
		proxy.Heal()
	}()

	if _, _, err := master.Infer(tensor.NewRNG(107).Randn(1, 4)); err != nil {
		t.Fatalf("query across a stalled link: %v", err)
	}
	h := master.Health()[0]
	if h.State != PeerHealthy || h.Trips != 0 || h.Failures != 1 || h.Retries != 1 || h.Redials != 1 {
		t.Fatalf("want one link fault answered by one retry on one fresh dial: %+v", h)
	}
}

// TestProbeReplacesStalledLink: unanswered pings on a link gone quiet open
// the breaker without closing the link, so the probe's answered link must
// displace it; the next query rides the probe's link and is answered.
func TestProbeReplacesStalledLink(t *testing.T) {
	proxy, addr := chaosWorker(t, 108, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetSupervisor(fastSupervisor())
	master.SetTimeout(100 * time.Millisecond)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}

	proxy.SetPlan(chaos.Fault{Mode: chaos.Stall, Prob: 1})
	for i := 0; i < fastSupervisor().FailureThreshold; i++ {
		if err := master.Ping(); err == nil {
			t.Fatal("ping across a stalled link succeeded")
		}
	}
	if h := master.Health()[0]; h.Trips != 1 || h.Redials != 0 {
		t.Fatalf("want the unanswered pings to open the breaker on one link: %+v", h)
	}
	proxy.Heal()
	waitForPeerState(t, master, 0, PeerHealthy, 5*time.Second)
	if _, _, err := master.Infer(tensor.NewRNG(109).Randn(1, 4)); err != nil {
		t.Fatalf("query after probe re-admission: %v", err)
	}
	if h := master.Health()[0]; h.Reconnects != 1 || h.Trips != 1 || h.Failures != 3 || h.Retries != 0 {
		t.Fatalf("want one trip healed by one probe, and the query answered first time: %+v", h)
	}
}

// TestOneConnectionPerPeer: a master holds exactly one connection to a peer
// — its link — through queries, a ping sweep, and a quarantine healed by a
// probe, whose link replaces the dead one instead of joining it.
func TestOneConnectionPerPeer(t *testing.T) {
	worker, addr := snapshotWorker(t, 104, 1)
	master := NewMaster(nil, 3)
	defer master.Close()
	cfg := fastSupervisor()
	cfg.FailureThreshold = 1
	master.SetSupervisor(cfg)
	master.SetTimeout(2 * time.Second)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	conns := func() int {
		worker.mu.Lock()
		defer worker.mu.Unlock()
		return len(worker.conns)
	}
	expectOne := func(step string) {
		t.Helper()
		if got := conns(); got != 1 {
			t.Fatalf("after %s the worker holds %d connections from its master, want 1", step, got)
		}
	}

	x := tensor.NewRNG(105).Randn(1, 4)
	for i := 0; i < 3; i++ {
		if _, _, err := master.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	expectOne("3 queries")
	if err := master.Ping(); err != nil {
		t.Fatal(err)
	}
	expectOne("a ping sweep")
	if n := master.Metrics().Histogram("peer." + addr + ".ping").Count(); n != 1 {
		t.Fatalf("peer ping histogram holds %d samples, want 1", n)
	}

	// Drop the link server-side: one strike opens the breaker, and the
	// probe's ping on a fresh link re-admits the peer.
	worker.mu.Lock()
	for conn := range worker.conns {
		conn.Close()
	}
	worker.mu.Unlock()
	// The closed connection leaves the worker's table once its read loop
	// has returned.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if h := master.Health()[0]; h.Reconnects == 1 && h.State == PeerHealthy && conns() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no probe re-admission: %+v, %d connections", master.Health()[0], conns())
		}
	}
	if h := master.Health()[0]; h.Trips != 1 {
		t.Fatalf("want one trip healed by one probe: %+v", h)
	}
	expectOne("a probe re-admission")
	if _, _, err := master.Infer(x); err != nil {
		t.Fatal(err)
	}
	expectOne("a query on the probe's link")
}
