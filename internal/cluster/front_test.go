package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Front tests: a gateway's master whose peers are masters (front.go) —
// least-loaded pick, one failover, what strikes a master and what does not,
// membership, and the breaker on the gateway→master hop.

// masterNode serves a master with a local expert and no peers over loopback.
func masterNode(t *testing.T, seed int64, id int) (*Node, string) {
	t.Helper()
	m := NewMaster(tinyExpert(t, seed), 3)
	t.Cleanup(func() { m.Close() })
	n := NewNode(RoleMaster, m, id)
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, addr
}

// proxiedMasterNode is masterNode behind a chaos proxy; the front dials the
// proxy's address.
func proxiedMasterNode(t *testing.T, seed int64, id int) (*Node, *chaos.Proxy, string) {
	t.Helper()
	n, addr := masterNode(t, seed, id)
	p := chaos.New(addr)
	paddr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return n, p, paddr
}

// newTestFront is a front on the fast supervisor, connected to addrs in order.
func newTestFront(t *testing.T, timeout time.Duration, addrs ...string) *Master {
	t.Helper()
	f := NewFront(3)
	t.Cleanup(func() { f.Close() })
	f.SetSupervisor(fastSupervisor())
	f.SetTimeout(timeout)
	for _, a := range addrs {
		if err := f.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// teamMasterNode serves a master with a local expert and one worker behind
// a chaos proxy over loopback. The master's round trip to its worker times
// out at 50ms, under quorumReq's soft deadline, so a stalled worker link
// fails and is quarantined rather than cancelled as a straggler.
func teamMasterNode(t *testing.T, seed int64, id int) (*Node, *chaos.Proxy, string) {
	t.Helper()
	proxy, worker := chaosWorker(t, seed, 10*id)
	m := NewMaster(tinyExpert(t, seed+1), 3)
	t.Cleanup(func() { m.Close() })
	m.SetSupervisor(fastSupervisor())
	m.SetTimeout(50 * time.Millisecond)
	if err := m.Connect(worker); err != nil {
		t.Fatal(err)
	}
	n := NewNode(RoleMaster, m, id)
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, proxy, addr
}

// quorumReq is a gateway's request for x: a quorum with a soft deadline.
func quorumReq(x *tensor.Tensor) Request {
	return Request{X: x, Policy: Policy{Gather: Quorum, Soft: 100 * time.Millisecond}}
}

// burst sends n requests at once and returns how many failed.
func burst(f *Master, n int, x *tensor.Tensor) int {
	failed, _ := burstOf(f, n, Request{X: x})
	return failed
}

// burstOf sends n copies of req at once and returns how many failed and how
// many answered degraded (Live < Total).
func burstOf(f *Master, n int, req Request) (failed, degraded int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			rep, err := f.Do(ctx, req)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				failed++
			case rep.Live < rep.Total:
				degraded++
			}
		}()
	}
	wg.Wait()
	return failed, degraded
}

func served(n *Node) int64 { return n.Metrics().Counter("requests").Value() }

// TestFrontSpreadsLoad: concurrent requests spread over both masters — a
// master without rtt samples ranks first, and in-flight round trips weigh
// on a measured one — and each is one dispatch, no failover.
func TestFrontSpreadsLoad(t *testing.T) {
	a, aAddr := masterNode(t, 300, 1)
	b, bAddr := masterNode(t, 301, 2)
	f := newTestFront(t, 2*time.Second, aAddr, bAddr)
	const n = 32
	if failed := burst(f, n, tensor.NewRNG(302).Randn(1, 4)); failed != 0 {
		t.Fatalf("%d of %d requests failed", failed, n)
	}
	if served(a) == 0 || served(b) == 0 || served(a)+served(b) != n {
		t.Fatalf("masters served %d and %d of %d requests, want both some and %d in all", served(a), served(b), n, n)
	}
	reg := f.Metrics()
	if got := reg.Counter("fabric.requests").Value(); got != n || reg.Counter("route.failover").Value() != 0 {
		t.Fatalf("fabric.requests = %d, route.failover = %d; want %d and 0", got, reg.Counter("route.failover").Value(), n)
	}
}

// TestFrontFailsOverADeadMaster: a request whose first pick is dead fails
// over once to the live master and succeeds; the dead one is struck, and
// its trials, one per costHorizon, fail until the breaker quarantines it.
func TestFrontFailsOverADeadMaster(t *testing.T) {
	dead, deadAddr := masterNode(t, 310, 1)
	live, liveAddr := masterNode(t, 311, 2)
	f := newTestFront(t, 2*time.Second, deadAddr, liveAddr)
	dead.Close()
	x := tensor.NewRNG(312).Randn(2, 4)
	deadline := time.Now().Add(5 * time.Second)
	n := int64(0)
	for h := f.Health()[0]; n < 8 || h.State == PeerHealthy || h.State == PeerSuspect; h = f.Health()[0] {
		if time.Now().After(deadline) {
			t.Fatalf("dead master not quarantined after %d requests: %+v", n, h)
		}
		rep, err := f.Do(context.Background(), Request{X: x})
		if err != nil {
			t.Fatalf("request %d: %v", n, err)
		}
		if rep.Probs.Shape[0] != 2 || rep.Live != 1 || rep.Total != 1 {
			t.Fatalf("request %d answered %v live %d/%d", n, rep.Probs.Shape, rep.Live, rep.Total)
		}
		n++
	}
	reg := f.Metrics()
	failovers := reg.Counter("route.failover").Value()
	if failovers == 0 || served(live) != n {
		t.Fatalf("route.failover = %d, the live master served %d; want ≥ 1 and all %d", failovers, served(live), n)
	}
	if got := reg.Counter("fabric.requests").Value(); got != n+failovers {
		t.Fatalf("fabric.requests = %d, want one dispatch per request plus %d failovers", got, failovers)
	}
}

// TestFrontCallerDeadlineNeitherFailsOverNorStrikes: a request whose ctx
// expires on a stalled master is the caller's verdict, not the master's —
// no failover to the other master, no breaker strike.
func TestFrontCallerDeadlineNeitherFailsOverNorStrikes(t *testing.T) {
	_, proxy, stalled := proxiedMasterNode(t, 320, 1)
	other, otherAddr := masterNode(t, 321, 2)
	f := newTestFront(t, 10*time.Second, stalled, otherAddr)
	proxy.SetPlan(chaos.Fault{Mode: chaos.Stall, Prob: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := f.Do(ctx, Request{X: tensor.NewRNG(322).Randn(1, 4)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the caller's deadline", err)
	}
	if got := f.Metrics().Counter("route.failover").Value(); got != 0 || served(other) != 0 {
		t.Fatalf("route.failover = %d and the other master served %d after a caller abort, want 0 and 0", got, served(other))
	}
	if h := f.Health()[0]; h.Failures != 0 || h.State != PeerHealthy {
		t.Fatalf("caller abort struck the master: %+v", h)
	}
}

// TestFrontMembership: no masters is an error; Disconnect drops one, after
// which the other serves everything, and the last one leaves the front with
// none.
func TestFrontMembership(t *testing.T) {
	x := tensor.NewRNG(330).Randn(1, 4)
	f := newTestFront(t, 2*time.Second)
	if _, err := f.Do(context.Background(), Request{X: x}); !errors.Is(err, errNoMasters) {
		t.Fatalf("front with no masters: err = %v, want errNoMasters", err)
	}
	a, aAddr := masterNode(t, 331, 1)
	b, bAddr := masterNode(t, 332, 2)
	for _, addr := range []string{aAddr, bAddr} {
		if err := f.Connect(addr); err != nil {
			t.Fatal(err)
		}
	}
	f.Disconnect(aAddr)
	f.Disconnect(aAddr) // no longer a peer: a no-op
	if f.Peers() != 1 {
		t.Fatalf("%d peers after one of two was disconnected", f.Peers())
	}
	for range 4 {
		if _, err := f.Do(context.Background(), Request{X: x}); err != nil {
			t.Fatal(err)
		}
	}
	if served(a) != 0 || served(b) != 4 {
		t.Fatalf("after Disconnect the masters served %d and %d, want 0 and 4", served(a), served(b))
	}
	f.Disconnect(bAddr)
	if _, err := f.Do(context.Background(), Request{X: x}); !errors.Is(err, errNoMasters) {
		t.Fatalf("front after its last Disconnect: err = %v, want errNoMasters", err)
	}
}

// TestFrontForwardsQuorumToAGateway: the gateway's {Quorum, Soft} crosses
// the front unchanged, so a master that answers without a stalled worker
// reaches the client as a degraded answer with its quorum.
func TestFrontForwardsQuorumToAGateway(t *testing.T) {
	_, stalled := chaosWorker(t, 340, 1, chaos.Fault{Mode: chaos.Stall, Prob: 1})
	m := NewMaster(tinyExpert(t, 341), 3)
	defer m.Close()
	m.SetTimeout(5 * time.Second) // the quorum's soft deadline answers first
	if err := m.Connect(stalled); err != nil {
		t.Fatal(err)
	}
	n := NewNode(RoleMaster, m, 1)
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	gw := serve.New(newTestFront(t, 5*time.Second, addr), serve.Config{Degraded: true})
	defer gw.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	res, err := gw.Predict(ctx, tensor.NewRNG(342).Randn(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Live != 1 || res.Nodes != 2 {
		t.Fatalf("gateway answer degraded=%v live %d/%d, want degraded 1/2", res.Degraded, res.Live, res.Nodes)
	}
}

// TestFrontQuarantinesAStalledMaster is the breaker on the gateway→master
// hop: a stalled master is struck out by its timeouts while every request
// fails over to the healthy one — none fails — and once the link heals a
// probe re-admits it and traffic returns to it.
func TestFrontQuarantinesAStalledMaster(t *testing.T) {
	sick, proxy, sickAddr := proxiedMasterNode(t, 350, 1)
	_, goodAddr := masterNode(t, 351, 2)
	f := newTestFront(t, 100*time.Millisecond, sickAddr, goodAddr)
	x := tensor.NewRNG(352).Randn(1, 4)
	if failed := burst(f, 8, x); failed != 0 {
		t.Fatalf("%d requests failed before the stall", failed)
	}

	// The first timeout strikes the master's estimate, so it earns its next
	// breaker strikes on the trials, one per costHorizon.
	proxy.SetPlan(chaos.Fault{Mode: chaos.Stall, Prob: 1})
	for deadline := time.Now().Add(5 * time.Second); f.Health()[0].State == PeerHealthy || f.Health()[0].State == PeerSuspect; {
		if time.Now().After(deadline) {
			t.Fatalf("stalled master never quarantined: %+v", f.Health()[0])
		}
		if failed := burst(f, 4, x); failed != 0 {
			t.Fatalf("%d requests failed while the master stalled", failed)
		}
	}
	if f.Metrics().Counter("route.failover").Value() == 0 || f.Health()[0].Trips != 1 {
		t.Fatalf("no failover or no trip while the master stalled: %+v", f.Health()[0])
	}
	// Quarantined is out of rotation: for longer than any cooldown, no
	// request is sent to it, and none fails.
	sent := f.Metrics().Counter("peer." + sickAddr + ".requests")
	tries := sent.Value()
	for start := time.Now(); time.Since(start) < 600*time.Millisecond; {
		if failed := burst(f, 4, x); failed != 0 {
			t.Fatalf("%d requests failed while the master was quarantined", failed)
		}
	}
	if got := sent.Value(); got != tries {
		t.Fatalf("the quarantined master was sent %d requests", got-tries)
	}

	proxy.Heal()
	waitForPeerState(t, f, 0, PeerHealthy, 5*time.Second)
	before := served(sick)
	for i := 0; served(sick) == before; i++ {
		if i == 50 {
			t.Fatal("no traffic returned to the re-admitted master")
		}
		if failed := burst(f, 8, x); failed != 0 {
			t.Fatalf("%d requests failed after the heal", failed)
		}
	}
	if h := f.Health()[0]; h.Reconnects != 1 {
		t.Fatalf("re-admitted master: %+v, want one probe reconnect", h)
	}
}

// errorReplier is a master that answers every request with an error reply,
// as one does to a strict request while a worker of its is quarantined.
func errorReplier(t *testing.T) string {
	return cannedReplier(t, MsgErrorMux, func(id uint32) []byte {
		return replyPayload(replyHeader{id: id}, []byte("no quorum"))
	})
}

// TestFrontBenchesAnErroringMaster: an error reply does not feed the
// breaker, but it strikes the master's estimate, which ranks it behind the
// healthy one. With two masters answering errors and one healthy, the first
// request may meet both before either is known; after it none fails — a
// trial that errs fails over to the healthy master, never to the other
// erring one — and each erring master gets its first request and then one
// trial per costHorizon, not a share.
func TestFrontBenchesAnErroringMaster(t *testing.T) {
	bad1, bad2 := errorReplier(t), errorReplier(t)
	good, goodAddr := masterNode(t, 360, 1)
	f := newTestFront(t, 2*time.Second, bad1, bad2, goodAddr)
	x := tensor.NewRNG(361).Randn(1, 4)
	start := time.Now()
	_, err := f.Do(context.Background(), Request{X: x})
	n := 0
	if err == nil {
		n++
	}
	for ; time.Since(start) < 3*costHorizon; n++ {
		if _, err := f.Do(context.Background(), Request{X: x}); err != nil {
			t.Fatalf("request %d: %v", n, err)
		}
	}
	trials := int64(time.Since(start)/costHorizon) + 1
	for i, addr := range []string{bad1, bad2} {
		if got := f.Metrics().Counter("peer." + addr + ".requests").Value(); got > 1+trials {
			t.Fatalf("erring master %d was sent %d of %d requests, want its first and ≤ %d trials", i, got, n, trials)
		}
		if h := f.Health()[i]; h.Failures != 0 || h.State != PeerHealthy {
			t.Fatalf("an error reply struck master %d: %+v", i, h)
		}
	}
	if served(good) != int64(n) {
		t.Fatalf("the healthy master served %d of %d requests", served(good), n)
	}
}

// TestFrontFollowsASlowedMaster: the pick reads a master's recent rtt, not
// its mean since start — after a long warm-up at loopback speed, a master
// slowed to a few times the rtt at which 8 in flight on the other master
// outweigh it loses its share once a window of its round trips has seen the
// slowdown, long before its mean since start would cross that line.
func TestFrontFollowsASlowedMaster(t *testing.T) {
	slowed, proxy, slowedAddr := proxiedMasterNode(t, 370, 1)
	fast, fastAddr := masterNode(t, 371, 2)
	f := newTestFront(t, 2*time.Second, slowedAddr, fastAddr)
	x := tensor.NewRNG(372).Randn(1, 4)
	for range 60 {
		if failed := burst(f, 8, x); failed != 0 {
			t.Fatalf("%d requests failed in the warm-up", failed)
		}
	}
	if served(slowed) == 0 || served(fast) == 0 {
		t.Fatalf("warm-up served %d and %d, want both masters a share", served(slowed), served(fast))
	}

	// Each direction's chunk waits 12 fast round trips: the slowed master's
	// rtt becomes ~24 of the fast one's, 3× the line.
	peers := f.snapshotPeers()
	delay := max(12*peers[1].cost.mean(), time.Millisecond)
	proxy.SetPlan(chaos.Fault{Mode: chaos.Latency, Delay: delay})
	// Its recent rtt catches up within a window of its round trips, driven
	// past the line by bursts twice as wide.
	for i := 0; peers[0].cost.mean() < 8*peers[1].cost.mean(); i++ {
		if i == costWindow {
			t.Fatalf("after %d bursts the slowed master's recent rtt is %v, the fast one's %v", i, peers[0].cost.mean(), peers[1].cost.mean())
		}
		if failed := burst(f, 16, x); failed != 0 {
			t.Fatalf("%d requests failed while the master slowed", failed)
		}
	}
	before, fastBefore := served(slowed), served(fast)
	for range 10 {
		if failed := burst(f, 8, x); failed != 0 {
			t.Fatalf("%d requests failed while the master was slow", failed)
		}
	}
	if got, all := served(slowed)-before, served(slowed)+served(fast)-before-fastBefore; got > all/10 {
		t.Fatalf("the slowed master (%v a chunk) served %d of %d requests, want ≤ 10%%", delay, got, all)
	}
}

// TestFrontAvoidsADegradedMaster: a master that answers without part of its
// team is fast for the wrong reason. Once its only worker's link resets and
// it quarantines that worker, it answers from its own expert alone, faster
// than a whole master; but a degraded answer strikes it and is no cost
// sample, so it gets one trial per costHorizon and the healthy master
// answers the rest in full.
func TestFrontAvoidsADegradedMaster(t *testing.T) {
	a, proxy, aAddr := teamMasterNode(t, 380, 1)
	_, _, bAddr := teamMasterNode(t, 382, 2)
	f := newTestFront(t, 2*time.Second, aAddr, bAddr)
	req := quorumReq(tensor.NewRNG(384).Randn(1, 4))
	for range 4 {
		if failed, d := burstOf(f, 8, req); failed+d != 0 {
			t.Fatalf("warm-up: %d failed, %d degraded", failed, d)
		}
	}
	proxy.SetPlan(chaos.Fault{Mode: chaos.Reset, Prob: 1})
	for deadline := time.Now().Add(5 * time.Second); a.master.Health()[0].State != PeerOpen; {
		if time.Now().After(deadline) {
			t.Fatalf("the reset worker was never quarantined: %+v", a.master.Health()[0])
		}
		if _, err := a.master.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	const bursts, width = 100, 8
	degraded := 0
	for range bursts {
		failed, d := burstOf(f, width, req)
		if failed != 0 {
			t.Fatalf("%d requests failed", failed)
		}
		degraded += d
	}
	if all := bursts * width; degraded > all/50 {
		t.Fatalf("%d of %d answers degraded, want ≤ 2%%", degraded, all)
	}
}

// TestFrontRemeasuresAStaleEstimate: sequential requests go to the master
// measured faster. One master's first round trip crossed a slow link, so its
// estimate is that outlier; but the estimate goes stale within costHorizon
// and a request claims it, so once the link is fast again both equal masters
// serve a share.
func TestFrontRemeasuresAStaleEstimate(t *testing.T) {
	a, aAddr := masterNode(t, 390, 1)
	b, proxy, bAddr := proxiedMasterNode(t, 391, 2)
	f := newTestFront(t, 2*time.Second, aAddr, bAddr)
	x := tensor.NewRNG(392).Randn(1, 4)
	proxy.SetPlan(chaos.Fault{Mode: chaos.Latency, Delay: 20 * time.Millisecond})
	for range 2 { // each unmeasured master is claimed once
		if _, err := f.Do(context.Background(), Request{X: x}); err != nil {
			t.Fatal(err)
		}
	}
	proxy.Heal()
	aBefore, bBefore := served(a), served(b)
	for start := time.Now(); time.Since(start) < 3*costHorizon; {
		if _, err := f.Do(context.Background(), Request{X: x}); err != nil {
			t.Fatal(err)
		}
	}
	if na, nb := served(a)-aBefore, served(b)-bBefore; na < 2 || nb < 2 {
		t.Fatalf("over %v of sequential requests the masters served %d and %d, want each ≥ 2", 3*costHorizon, na, nb)
	}
}

// TestFrontRestoresAHealedMaster is the exploration rule end to end: one
// master's worker link stalls, so the front's requests to it wait out its
// soft deadline and come back degraded; the master quarantines the worker,
// the link heals and the master's probe re-admits it. The front's trial then
// finds the master whole, and within a bounded number of requests it serves
// ≥ ¾ of its fair half again — its stall-era round trips do not outlive the
// stall.
func TestFrontRestoresAHealedMaster(t *testing.T) {
	a, proxy, aAddr := teamMasterNode(t, 394, 1)
	_, _, bAddr := teamMasterNode(t, 396, 2)
	f := newTestFront(t, 2*time.Second, aAddr, bAddr)
	req := quorumReq(tensor.NewRNG(398).Randn(1, 4))
	run := func() {
		t.Helper()
		if failed, _ := burstOf(f, 8, req); failed != 0 {
			t.Fatalf("%d requests failed", failed)
		}
	}
	for range 20 {
		run()
	}
	if served(a) == 0 {
		t.Fatal("the master served nothing before the stall")
	}
	proxy.SetPlan(chaos.Fault{Mode: chaos.Stall, Prob: 1})
	run()
	for deadline := time.Now().Add(5 * time.Second); a.master.Health()[0].State != PeerOpen; {
		if time.Now().After(deadline) {
			t.Fatalf("the stalled worker was never quarantined: %+v", a.master.Health()[0])
		}
		if _, err := a.master.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	proxy.Heal()
	waitForPeerState(t, a.master, 0, PeerHealthy, 5*time.Second)

	// Every burst is paced, so the bound in requests is one in time too.
	const window, bound = 20, 100 // bursts of 8
	counts := []int64{served(a)}
	for i := 1; ; i++ {
		if i > bound {
			t.Fatalf("%d requests after the heal the master serves %d of the last %d, want ≥ 3/8", 8*bound, counts[bound]-counts[bound-window], 8*window)
		}
		run()
		time.Sleep(5 * time.Millisecond)
		counts = append(counts, served(a))
		if i >= window && 8*(counts[i]-counts[i-window]) >= 3*8*window {
			break
		}
	}
}

// TestFrontSparseTrafficKeepsItsPick: requests spaced past costHorizon find
// every estimate old, but an estimate is stale only once a window of
// requests passed its master over (cost.go), so sparse traffic claims none.
// A slowed master and a degraded one, each connected first, serve at most
// one of the spaced requests — the pick and the strike still hold.
func TestFrontSparseTrafficKeepsItsPick(t *testing.T) {
	const spaced = 8
	run := func(t *testing.T, f *Master, req Request) (degraded int) {
		t.Helper()
		for range spaced {
			time.Sleep(costHorizon + 10*time.Millisecond)
			rep, err := f.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Live < rep.Total {
				degraded++
			}
		}
		return degraded
	}
	t.Run("slowed", func(t *testing.T) {
		slow, proxy, slowAddr := proxiedMasterNode(t, 400, 1)
		_, fastAddr := masterNode(t, 401, 2)
		f := newTestFront(t, 2*time.Second, slowAddr, fastAddr)
		x := tensor.NewRNG(402).Randn(1, 4)
		proxy.SetPlan(chaos.Fault{Mode: chaos.Latency, Delay: 20 * time.Millisecond})
		for range 2 { // each unmeasured master is claimed once
			if _, err := f.Do(context.Background(), Request{X: x}); err != nil {
				t.Fatal(err)
			}
		}
		before := served(slow)
		run(t, f, Request{X: x})
		if got := served(slow) - before; got > 1 {
			t.Fatalf("the slowed master served %d of %d spaced requests, want ≤ 1", got, spaced)
		}
	})
	t.Run("degraded", func(t *testing.T) {
		a, proxy, aAddr := teamMasterNode(t, 404, 1)
		_, _, bAddr := teamMasterNode(t, 406, 2)
		f := newTestFront(t, 2*time.Second, aAddr, bAddr)
		req := quorumReq(tensor.NewRNG(408).Randn(1, 4))
		for range 4 {
			if failed, d := burstOf(f, 8, req); failed+d != 0 {
				t.Fatalf("warm-up: %d failed, %d degraded", failed, d)
			}
		}
		proxy.SetPlan(chaos.Fault{Mode: chaos.Reset, Prob: 1})
		for deadline := time.Now().Add(5 * time.Second); a.master.Health()[0].State != PeerOpen; {
			if time.Now().After(deadline) {
				t.Fatalf("the reset worker was never quarantined: %+v", a.master.Health()[0])
			}
			if _, err := a.master.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		if d := run(t, f, req); d > 1 {
			t.Fatalf("%d of %d spaced requests answered degraded, want ≤ 1", d, spaced)
		}
	})
}
