package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/split"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// Partial offload on the master (DESIGN.md §13): run the head of the local
// expert here, ship the boundary activation to a peer, let the peer finish
// the tail from its own snapshot. The split point comes from an
// internal/split planner fed three live signals — local head timings, and
// each peer's compute and link fits from its cost estimate (cost.go), which
// every round trip to the peer feeds, whole query or tail — plus the static
// per-boundary FLOP/width profile; whole-local and whole-remote
// are ordinary candidates, so `-split auto` strictly subsumes the binary
// offload choice, and a peer whose estimate went stale while the plan passed
// it over gets a whole-remote probe (cost.go's one exploration rule).
// Offload failures degrade, never fail the query: a
// version-mismatched peer (mid-rollout fleet) gets the whole query instead
// (valid against any version), a transport fault finishes the tail
// locally, and no peer at all means a plain local forward.
//
// A tail is one MsgDo: {Own, SplitAt(k)}, the activation at float64
// (protocol.go), pinned to the model version the head was computed against
// by the header's version pin. Version mismatches are a first-class
// outcome, not a generic error: a mid-rollout fleet has heads and tails from
// different model versions for a few seconds, and executing a tail against
// the wrong weights would produce a confidently wrong answer. The serving
// node refuses with a typed, wire-recognizable error and the caller degrades
// to whole-query offload (which carries the raw input, valid against any
// version).

// ErrSplitVersionMismatch reports that the serving peer's model version
// differs from the version a request was pinned to (for a split request,
// the version its head was computed against).
var ErrSplitVersionMismatch = errors.New("cluster: split model version mismatch")

// splitVersionMismatchPrefix is the wire text of a version refusal; the
// client maps it back to ErrSplitVersionMismatch so callers can branch on
// errors.Is across the network boundary.
const splitVersionMismatchPrefix = "split version mismatch: "

// workerError rehydrates a MsgErrorMux text into an error, typed when the
// text is a version refusal.
func workerError(text string) error {
	if strings.HasPrefix(text, splitVersionMismatchPrefix) {
		return fmt.Errorf("%w: %s", ErrSplitVersionMismatch, strings.TrimPrefix(text, splitVersionMismatchPrefix))
	}
	return fmt.Errorf("worker error: %s", text)
}

// EnableSplit profiles the local expert and installs the online split
// planner, re-planned at most every replan (0 = the planner default).
// Required before a SplitAuto request. Call again after
// swapping the local expert; a stale profile is also detected and
// re-profiled automatically on the next auto query.
func (m *Master) EnableSplit(replan time.Duration) error {
	snap := m.Local().Snapshot
	if snap == nil {
		return fmt.Errorf("cluster: split planning requires a local expert")
	}
	opts := split.Options{
		Replan: replan,
		// The pin rides in every split request: size it from the label being
		// served when the planner asks, not the one served at enable time.
		WireBytes: func(batch, width int) int {
			req, rep := WireBytes(splitTail, len(m.Local().Version), batch, width, m.classes)
			return req + rep
		},
	}
	m.mu.Lock()
	m.splitOpts = opts
	m.splitPl = split.New(split.NewProfile(snap), opts)
	m.mu.Unlock()
	return nil
}

// splitPlannerFor returns the installed planner, re-profiling it when the
// local snapshot changed shape since EnableSplit (a hot-swap mid-rollout);
// nil when EnableSplit was never called.
func (m *Master) splitPlannerFor(snap *nn.Snapshot) *split.Planner {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.splitPl == nil {
		return nil
	}
	prof := m.splitPl.Profile()
	if prof.Steps() != snap.Steps() || prof.Model != snap.Label() {
		m.metrics.Counter("split.reprofiled").Inc()
		m.splitPl = split.New(split.NewProfile(snap), m.splitOpts)
	}
	return m.splitPl
}

// SplitPlanReport returns the planner's full candidate cost table for a
// batch size (the /splitplan admin view), or nil before EnableSplit.
func (m *Master) SplitPlanReport(batch int) *split.Report {
	snap := m.Local().Snapshot
	if snap == nil {
		return nil
	}
	pl := m.splitPlannerFor(snap)
	if pl == nil {
		return nil
	}
	r := pl.Report(batch, m.splitPeers(false))
	return &r
}

// splitPeers is every peer's fits, in connection order: the planner's view
// of the peers. For a query (auto), it counts a pass over each peer — the
// peer the plan uses answers with a sample that resets the count — and
// claims the first available peer whose estimate is stale (cost.go), marked
// for the planner's probe.
func (m *Master) splitPeers(auto bool) []split.Peer {
	peers := m.snapshotPeers()
	out := make([]split.Peer, len(peers))
	now, probe := time.Now().UnixNano(), auto
	for i, p := range peers {
		p.cost.mu.Lock()
		out[i] = split.Peer{Addr: p.addr, Link: p.cost.link, Compute: p.cost.compute}
		p.cost.mu.Unlock()
		if !auto {
			continue
		}
		p.cost.stamp.pass()
		if probe && p.available() && p.cost.stamp.claim(now) {
			out[i].Probe, probe = true, false
		}
	}
	return out
}

// splitQuery answers one batch through the partial-offload path: head
// locally, activation to a peer, tail remotely. Requires a local expert.
// The query records an "infer.split" span with the head, peer round trip
// and any fallback as children; counters split.queries, split.local,
// split.remote, split.explore and split.fallback.* make the offload mix
// visible on /metrics, and the split.point gauge reports the last boundary
// executed.
func (m *Master) splitQuery(ctx context.Context, local *Model, x *tensor.Tensor, at SplitPoint) (Reply, error) {
	if local.Snapshot == nil {
		return Reply{}, fmt.Errorf("cluster: split inference requires a local expert")
	}
	tr := m.Tracer()
	root := tr.Start(trace.FromContext(ctx), "infer.split")
	start := time.Now()
	// The peer round trip builds its frame header from ctx: the split root
	// span is the tail's trace parent.
	res, err := m.inferSplit(trace.NewContext(ctx, root.Ctx()), x, at, local, tr, root.Ctx())
	root.EndErr(err)
	m.metrics.Observe("infer.split.total", time.Since(start))
	if err == nil {
		// Like an own answer, a split one is this node's expert's.
		res.Winners, res.Live, res.Total = make([]int, x.Shape[0]), 1, 1
	}
	return res, err
}

// splitTail is the policy a tail's wire cost is priced under.
var splitTail = Policy{Gather: Own, Split: SplitAt(0)}

// inferSplit runs one split query on local, loaded once by the caller: the
// head runs on its snapshot and the tail is pinned to its label, so the pin
// names the weights that computed the activation whatever SetLocal does
// meanwhile.
func (m *Master) inferSplit(ctx context.Context, x *tensor.Tensor, point SplitPoint, local *Model, tr *trace.Tracer, root trace.Context) (Reply, error) {
	if err := ctx.Err(); err != nil {
		return Reply{}, err
	}
	snap := local.Snapshot
	n := snap.Steps()
	batch := x.Shape[0]
	m.metrics.Counter("split.queries").Inc()

	var pl *split.Planner
	peerAddr := ""
	at := point.boundary()
	switch {
	case point == SplitAuto:
		pl = m.splitPlannerFor(snap)
		if pl == nil {
			return Reply{}, fmt.Errorf("cluster: auto split requires EnableSplit")
		}
		d := pl.Decide(batch, m.splitPeers(true))
		at, peerAddr = d.Split, d.Peer
		if d.Explore {
			m.metrics.Counter("split.explore").Inc()
		}
	case at < 0 || at > n:
		return Reply{}, fmt.Errorf("cluster: split index %d outside 0..%d", at, n)
	default:
		pl = m.splitPlannerFor(snap) // may be nil: static splits observe only if enabled
	}
	m.metrics.Gauge("split.point").Set(int64(at))

	// Head: steps [0, at) on the local snapshot. The boundary FLOPs feed the
	// planner's local compute fit.
	act := x
	if at > 0 {
		headStart := time.Now()
		act = snap.ForwardRange(x, 0, at)
		d := time.Since(headStart)
		m.metrics.Observe("split.head", d)
		tr.Record(root, "split.head", "", "", headStart, d)
		if pl != nil {
			pl.ObserveLocal(pl.Profile().Boundaries[at].HeadFLOPs*float64(batch), d)
		}
	}
	if at == n {
		m.metrics.Counter("split.local").Inc()
		return runSplitTail(snap, act, at), nil
	}

	p := m.splitPeer(peerAddr)
	if p == nil {
		m.metrics.Counter("split.fallback.no_peer").Inc()
		res := m.finishSplitLocally(snap, act, at, tr, root)
		res.Fallback = "no_peer"
		return res, nil
	}

	q := queryOf(Request{X: act, Policy: Policy{Gather: Own, Split: SplitAt(at)}}, m.classes)
	q.pin, q.series, q.flops = local.Version, "split.", snap.FLOPs(at, n)*float64(batch)
	res, err := p.doSplit(ctx, q, root)
	if err == nil {
		m.metrics.Counter("split.remote").Inc()
		return Reply{Probs: res.Probs, Entropy: res.Entropy, Split: at, Peer: p.addr}, nil
	}
	if ctx.Err() != nil {
		return Reply{}, ctx.Err()
	}
	if errors.Is(err, ErrSplitVersionMismatch) {
		// Mid-rollout fleet: the peer serves a different model version, so a
		// tail there would answer with the wrong weights. Degrade to
		// whole-query offload — the raw input is valid against any version.
		m.metrics.Counter("split.fallback.version").Inc()
		if qres, qerr := p.do(ctx, m.encodeInput(x, snap, tr, root), root); qerr == nil {
			return Reply{Probs: qres.Probs, Entropy: qres.Entropy, Split: 0, Peer: p.addr, Fallback: "version"}, nil
		} else if ctx.Err() != nil {
			return Reply{}, ctx.Err()
		}
		// The whole-query retry failed too: same local recovery as any
		// transport fault.
	}
	// Transport fault (link death, quarantine race): we still
	// hold the activation, so the query costs a local tail, never an error.
	m.metrics.Counter("split.fallback.transport").Inc()
	res2 := m.finishSplitLocally(snap, act, at, tr, root)
	res2.Fallback = "transport"
	return res2, nil
}

// splitPeer resolves the peer to offload to: the planner's choice when it
// named one, else the first available peer (static splits), else nil.
func (m *Master) splitPeer(addr string) *peerConn {
	var fallback *peerConn
	for _, p := range m.snapshotPeers() {
		if !p.available() {
			continue
		}
		if p.addr == addr {
			return p
		}
		if fallback == nil {
			fallback = p
		}
	}
	// The planned peer vanished, or none was planned: any available peer
	// beats failing.
	return fallback
}

// runSplitTail finishes the tail [split, Steps) and produces probabilities
// + entropies with exactly the operations PredictWithEntropy applies after
// its forward pass, so a tail — remote, recovered locally, or the empty one
// of a whole-local split — is bit-identical to the full local forward.
func runSplitTail(snap *nn.Snapshot, x *tensor.Tensor, split int) Reply {
	t := snap.ForwardRange(x, split, snap.Steps())
	tensor.SoftmaxRowsInto(t.Data, t.Data, t.Shape[0], t.Shape[1])
	return Reply{Probs: t, Entropy: tensor.EntropyRows(t).Data, Split: split}
}

// finishSplitLocally runs the tail [at, Steps) on the local snapshot — the
// transport-fault recovery path, bit-identical to having never offloaded.
func (m *Master) finishSplitLocally(snap *nn.Snapshot, act *tensor.Tensor, at int, tr *trace.Tracer, root trace.Context) Reply {
	start := time.Now()
	rep := runSplitTail(snap, act, at)
	d := time.Since(start)
	m.metrics.Observe("split.tail.local", d)
	tr.Record(root, "split.tail.local", "", "", start, d)
	return rep
}

// doSplit performs one partial-offload round trip on the peer's mux
// pipeline: attempt under the same outcome accounting as muxAttempts, but a
// single one. Unlike do it never retries — the caller holds the activation
// and can always finish locally, so a failed attempt is better spent there
// than on a second send. A tail feeds the peer's link and compute fits like
// any round trip, but its "split."-series histograms and its round trip stay
// out of the whole-query ones and out of the recent window the pick reads: a
// tail carries another byte and FLOP mix.
func (p *peerConn) doSplit(ctx context.Context, q peerQuery, parent trace.Context) (Reply, error) {
	tr := p.m.Tracer()
	if !p.available() {
		tr.Record(parent, "peer "+p.addr, "", trace.StatusSkipped, time.Now(), 0)
		return Reply{}, errPeerQuarantined{addr: p.addr, state: p.State()}
	}
	done, stop := joinDone(ctx, p.m.done)
	defer stop()
	sp := tr.Start(parent, "peer "+p.addr)
	res, tm, err, outcome := p.attempt(ctx, done, p.m.sup.Load().DialTimeout, q)
	p.emitAttempt(tr, sp.Ctx(), q, tm, err)
	sp.EndErr(err)
	switch outcome {
	case muxOK:
		p.recordSuccess()
	case muxDialFault:
		p.recordFailure()
	}
	return res, err
}
