package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/split"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// Master is the sensing node of Figure 1(d): it holds its own local expert,
// broadcasts each input to all worker peers (step 2), runs its expert in
// parallel with theirs (step 3), gathers results with uncertainties
// (step 4) and selects the least-uncertain prediction (step 5).
//
// Every peer is supervised (see supervisor.go): broken connections redial
// with backoff, transient errors retry within a bounded budget, and a
// repeatedly-failing peer is quarantined by a circuit breaker and probed
// back into rotation — the master survives worker churn without restarts.
type Master struct {
	// local is this node's own model, never nil; no snapshot in it = pure
	// coordinator. A versioned model push hot-swaps it while inferences are in
	// flight: each query loads the pointer once and runs to completion on —
	// and pins its split tail to — whichever model it started with.
	local   atomic.Pointer[Model]
	classes int
	front   bool // peers are masters: Do routes to one of them (front.go)
	metrics *metrics.Registry

	// The settings every peer reads from here at each round trip, one value
	// each, swapped whole by its setter: a setter reaches the peers connected
	// before and after it without a lock between m.mu and a peer's stateMu.
	tracer  atomic.Pointer[trace.Tracer] // nil = no span collection
	timeout atomic.Int64                 // per-round-trip deadline in ns; 0 = none
	sup     atomic.Pointer[SupervisorConfig]
	hedge   atomic.Bool
	budget  atomic.Pointer[RetryBudget] // nil = unlimited

	mu        sync.Mutex
	peers     []*peerConn
	done      chan struct{} // closed by Close; stops retries and probes
	closed    bool
	splitPl   *split.Planner // partial-offload planner; nil until EnableSplit
	splitOpts split.Options  // options the planner was built with (re-profiling)

	probeWG sync.WaitGroup // background probe loops
}

// peerConn is one supervised worker of m; every setting it uses is m's.
type peerConn struct {
	m    *Master
	addr string
	// link is the peer's one connection: queries, split tails and pings
	// ride it (see mux.go).
	link *link

	stateMu sync.Mutex // guards the supervision state machine
	state   PeerState
	fails   int
	probing bool
	closed  bool

	cost peerCost // what a round trip to the peer costs (cost.go)
	won  age      // the newest duplicate that answered first (hedge.go)
}

// NewMaster returns a master with an optional local expert, compiled into
// a frozen inference snapshot so concurrent Infer calls never serialize on
// it. classes is the classifier width, needed to shape gathered results.
// It panics on an uncompilable expert (programmer error at construction).
func NewMaster(local *nn.Network, classes int) *Master {
	m := &Master{classes: classes, metrics: new(metrics.Registry), done: make(chan struct{})}
	m.SetSupervisor(DefaultSupervisorConfig())
	model := new(Model)
	if local != nil {
		model.Snapshot = nn.MustSnapshot(local)
	}
	m.local.Store(model)
	return m
}

// Local returns the master's local model (never nil; its Snapshot is nil for
// a pure coordinator).
func (m *Master) Local() *Model { return m.local.Load() }

// SetTracer installs (or, with nil, removes) the span collector for every
// subsequent inference: each query then records a span tree decomposing its
// latency into serialize, per-peer network, remote compute and gating.
// Histograms and counters are recorded regardless. Affects peers connected
// before and after the call.
func (m *Master) SetTracer(tr *trace.Tracer) { m.tracer.Store(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (m *Master) Tracer() *trace.Tracer { return m.tracer.Load() }

// Metrics exposes the master's registry: the supervision counters; the
// latency histograms "infer.total", "infer.serialize", "infer.gate",
// "local.compute" and the per-peer "peer.<addr>.rtt" / "peer.<addr>.compute"
// / "peer.<addr>.ping" / "peer.<addr>.probe" series; and the gauges
// "mux.inflight" (requests currently pipelined across all peer links) and
// "mux.queue_depth" (requests waiting for an in-flight window slot).
func (m *Master) Metrics() *metrics.Registry { return m.metrics }

// SetTimeout bounds every subsequent per-peer round trip. A worker that
// exceeds the deadline fails that inference instead of wedging the master —
// on a lossy edge network a bounded error beats an unbounded wait. Zero
// disables the deadline. Affects peers connected before and after the call.
func (m *Master) SetTimeout(d time.Duration) { m.timeout.Store(int64(d)) }

// SetSupervisor replaces the peer lifecycle policy (retry budget, breaker
// threshold, backoff schedules). Zero fields fall back to defaults. Affects
// peers connected before and after the call.
func (m *Master) SetSupervisor(cfg SupervisorConfig) {
	cfg = cfg.normalized()
	m.sup.Store(&cfg)
}

// Connect dials a worker's link and adds it to the broadcast set. The
// initial dial is eager — a wrong address should fail loudly at setup — but
// from then on the supervisor owns the link and redials it as needed.
func (m *Master) Connect(addr string) error {
	p := &peerConn{m: m, addr: addr, state: PeerHealthy}
	p.link = &link{addr: addr, inflight: m.metrics.Gauge("mux.inflight"), queued: m.metrics.Gauge("mux.queue_depth"),
		redials: p.counter("redials"), onDown: p.muxLinkDown}
	if _, _, err := p.link.get(m.sup.Load().DialTimeout); err != nil {
		return fmt.Errorf("cluster: master dial %s: %w", addr, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		p.link.close()
		return fmt.Errorf("cluster: master is closed")
	}
	m.peers = append(m.peers, p)
	return nil
}

// Peers returns the number of connected workers.
func (m *Master) Peers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.peers)
}

// snapshotPeers copies the peer slice for lock-free fan-out.
func (m *Master) snapshotPeers() []*peerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*peerConn(nil), m.peers...)
}

// ensemble answers one broadcast query under rule: the "infer" span and
// total-latency sample every variant records, then gather (steps 2–4) and
// combine (step 5). A span parent stamped into ctx with trace.NewContext —
// by the serve gateway for each coalesced batch, by the frame server for a
// request that arrived over the fabric — parents the "infer" span tree.
func (m *Master) ensemble(ctx context.Context, local *nn.Snapshot, x *tensor.Tensor, rule Gather, soft time.Duration) (rep Reply, err error) {
	tr := m.Tracer()
	root := tr.Start(trace.FromContext(ctx), "infer")
	start := time.Now()
	defer func() {
		root.EndErr(err)
		m.metrics.Observe("infer.total", time.Since(start))
	}()
	// Peer round trips build their frame headers from ctx, so the root span
	// rides to the workers as their trace parent; an untraced master sends
	// none, whatever its own caller stamped.
	results, ok, err := m.gather(trace.NewContext(ctx, root.Ctx()), local, x, tr, root.Ctx(), rule, soft)
	if err != nil {
		return Reply{}, err
	}
	live := 0
	for _, o := range ok {
		if o {
			live++
		}
	}
	if live == 0 {
		return Reply{}, fmt.Errorf("cluster: no node answered")
	}
	rep = m.combine(tr, root.Ctx(), x.Shape[0], results, ok)
	rep.Live, rep.Total = live, len(results)
	return rep, nil
}

// encodeInput serializes the broadcast request — x for each peer's own
// expert — under a "serialize" span. The same payload is shared by every
// peer round trip. A peer's expert is priced at the FLOPs of local, the
// team's one architecture (none without a local expert).
func (m *Master) encodeInput(x *tensor.Tensor, local *nn.Snapshot, tr *trace.Tracer, root trace.Context) peerQuery {
	start := time.Now()
	q := queryOf(Request{X: x, Policy: Policy{Gather: Own}}, m.classes)
	if local != nil {
		q.flops = local.FLOPs(0, local.Steps()) * float64(x.Shape[0])
	}
	d := time.Since(start)
	m.metrics.Observe("infer.serialize", d)
	tr.Record(root, "serialize", "", "", start, d)
	return q
}

// localResult runs the given local-expert snapshot under a "local.compute"
// span. The snapshot is passed in (loaded once per query) so a concurrent
// SetLocal cannot change the model mid-query.
func (m *Master) localResult(local *nn.Snapshot, x *tensor.Tensor, tr *trace.Tracer, root trace.Context) Reply {
	start := time.Now()
	probs, ent := local.PredictWithEntropy(x)
	d := time.Since(start)
	m.metrics.Observe("local.compute", d)
	tr.Record(root, "local.compute", "", "", start, d)
	return Reply{Probs: probs, Entropy: ent.Data}
}

// slotResult is one node's report back to the gather loop.
type slotResult struct {
	slot int
	res  Reply
	err  error
}

// gather is the package's one broadcast loop (Fig 1d steps 2–4): it fans
// the input out to local, the loaded local expert (nil: none), and every
// peer, then collects results
// until every launched node reported or rule lets it stop sooner. Early
// returns cancel the straggler round trips via a derived context, which the
// peer paths treat as a caller abort: no breaker accounting, the mux link
// stays up.
func (m *Master) gather(ctx context.Context, local *nn.Snapshot, x *tensor.Tensor, tr *trace.Tracer, root trace.Context, rule Gather, soft time.Duration) (results []Reply, ok []bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	peers := m.snapshotPeers()
	nodes := len(peers)
	localIdx := -1
	if local != nil {
		nodes++
		localIdx = 0
	}
	if nodes == 0 {
		return nil, nil, fmt.Errorf("cluster: master has neither local expert nor peers")
	}

	results = make([]Reply, nodes)
	ok = make([]bool, nodes)
	resc := make(chan slotResult, nodes)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	query := m.encodeInput(x, local, tr, root)
	launched := 0
	for i, p := range peers {
		slot := i
		if localIdx == 0 {
			slot = i + 1
		}
		if !p.available() {
			// The quarantined peer still appears in the span tree, tagged
			// skipped, so a thinner-than-expected tree reads as "peer was
			// sick", not "peer never existed".
			tr.Record(root, "peer "+p.addr, "", trace.StatusSkipped, time.Now(), 0)
			if rule == Strict {
				return nil, nil, fmt.Errorf("cluster: node %d: %w", slot, errPeerQuarantined{addr: p.addr, state: p.State()})
			}
			m.metrics.Counter("route.skipped_quarantined").Inc()
			continue
		}
		launched++
		go func(p *peerConn, slot int) {
			res, rerr := p.do(wctx, query, root)
			resc <- slotResult{slot: slot, res: res, err: rerr}
		}(p, slot)
	}
	if localIdx == 0 {
		launched++
		go func() {
			// The local expert runs off the caller's goroutine, so a
			// caller-side recover (e.g. the gateway's panic guard) cannot
			// catch a forward-pass panic — a width-mismatched input would
			// kill the whole process. Contain it to this slot: the local
			// expert just reports an error, like any other failed node.
			defer func() {
				if r := recover(); r != nil {
					m.metrics.Counter("local.panics_recovered").Inc()
					resc <- slotResult{slot: 0, err: fmt.Errorf("local expert panic: %v", r)}
				}
			}()
			resc <- slotResult{slot: 0, res: m.localResult(local, x, tr, root)}
		}()
	}

	var softC <-chan time.Time
	if soft > 0 {
		t := time.NewTimer(soft)
		defer t.Stop()
		softC = t.C
	}
	live, received := 0, 0
	for received < launched {
		select {
		case r := <-resc:
			received++
			if r.err == nil {
				results[r.slot], ok[r.slot] = r.res, true
				live++
			} else if rule == Strict {
				if cerr := ctx.Err(); cerr != nil {
					return nil, nil, cerr // the caller gave up, not the node
				}
				return nil, nil, fmt.Errorf("cluster: node %d: %w", r.slot, r.err)
			}
		case <-softC:
			softC = nil
			if live > 0 {
				m.metrics.Counter("infer.partial").Inc()
				return results, ok, nil
			}
		case <-ctx.Done():
			if rule == Quorum && live > 0 {
				m.metrics.Counter("infer.partial").Inc()
				return results, ok, nil
			}
			return nil, nil, ctx.Err()
		}
	}
	if rule == BestEffort {
		// Peers that failed because ctx expired were tolerated above; the
		// caller still gets the ctx error, not a silently thinner answer.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	return results, ok, nil
}

// combine is the package's one arg-min loop (Fig 1d step 5): per sample,
// the least-uncertain answer across the ok slots. A peer's result was
// shape-checked against the batch where it was decoded.
func (m *Master) combine(tr *trace.Tracer, root trace.Context, batch int, results []Reply, ok []bool) Reply {
	gateStart := time.Now()
	probs := tensor.New(batch, m.classes)
	winners := make([]int, batch)
	entropy := make([]float64, batch)
	for b := 0; b < batch; b++ {
		bi := -1
		best := 0.0
		for n := range results {
			if !ok[n] {
				continue
			}
			if bi < 0 || results[n].Entropy[b] < best {
				best, bi = results[n].Entropy[b], n
			}
		}
		winners[b], entropy[b] = bi, best
		copy(probs.RowSlice(b), results[bi].Probs.RowSlice(b))
	}
	d := time.Since(gateStart)
	m.metrics.Observe("infer.gate", d)
	tr.Record(root, "gate", "", "", gateStart, d)
	return Reply{Probs: probs, Entropy: entropy, Winners: winners}
}

// Ping probes every peer within the configured per-peer timeout and reports
// every unreachable peer (joined into one error), not just the first — a
// health sweep, not a first-failure trip wire.
func (m *Master) Ping() error {
	peers := m.snapshotPeers()
	var errs []error
	for _, p := range peers {
		if err := p.ping(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close drops all peer connections and stops background supervision.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	peers := m.peers
	m.peers = nil
	close(m.done)
	m.mu.Unlock()

	for _, p := range peers {
		p.markClosed()
		p.link.close()
	}
	m.probeWG.Wait()
	return nil
}
