package cluster

import (
	"context"
	"fmt"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// The request model: every inference a Master answers is one Request
// through one entry point, Do — in process, and over the wire as one MsgDo
// frame that any Node answers with its master's Do (protocol.go, node.go).
// How to answer is a Policy value: what a master asks of each peer, a split
// tail and a gateway's query are three policies of one Request. What a
// query needs beyond its policy — deadline, cancellation, trace parent —
// rides in ctx and from there into the frame header of every round trip
// the query makes (header.go).

// Request is one inference: the input batch and how to answer it.
type Request struct {
	X      *tensor.Tensor
	Policy Policy
}

// Policy is how a Request is answered. The zero value is the paper's
// protocol: broadcast to every node, arg-min over all of them.
type Policy struct {
	// Gather is what the broadcast demands of the team before it gates.
	Gather Gather
	// Soft, under Quorum, is the time after dispatch at which whatever
	// subset has answered becomes the answer (0 = wait for ctx).
	Soft time.Duration
	// Split, under Own, names the boundary the input enters at. Under any
	// other rule, a Split other than SplitOff answers by partial offload
	// instead of from the ensemble — head on the local expert, tail on one
	// peer — and Soft does not apply.
	Split SplitPoint
}

// Gather is the rule a broadcast query gathers under.
type Gather int

const (
	// Strict is the paper's protocol: a quarantined or failed node fails
	// the query as "cluster: node N: …" and cancels the other waits. Every
	// peer round trip still carries the supervisor's retry budget, so a
	// single transient I/O error does not fail the batch.
	Strict Gather = iota
	// BestEffort is degraded mode for lossy edge deployments: quarantined
	// peers are skipped outright — sick nodes cost nothing while they
	// recover — and nodes that fail or time out drop out of the arg-min.
	// It errors only when no node answered, or with the ctx error when ctx
	// expires (a caller that stopped waiting gets nothing, not a stale
	// subset).
	BestEffort
	// Quorum is BestEffort that refuses to let a straggler drag the answer
	// to the deadline: once Policy.Soft has elapsed since dispatch, or ctx
	// expires, with at least one result gathered, the partial ensemble's
	// arg-min is the answer ("infer.partial") and Reply.Live < Reply.Total
	// says it is degraded. Stragglers are cancelled (a caller abort, not a
	// peer fault). It errors only when ctx expires with nothing gathered.
	Quorum
	// Own answers from this node's own expert alone: no broadcast, Live =
	// Total = 1, every row's winner 0. Policy.Split names the boundary the
	// input enters at: SplitOff for the raw input, SplitAt(k) for the
	// activation at boundary k, whose tail [k, Steps) runs here. SplitAuto is
	// refused, and so is a boundary past Steps(). A master asks each peer
	// {Own, SplitOff}, and a split tail is {Own, SplitAt(k)}.
	Own
)

// SplitPoint selects partial offload and its boundary. The zero value,
// SplitOff, is no split.
type SplitPoint int

const (
	// SplitOff answers from the ensemble.
	SplitOff SplitPoint = 0
	// SplitAuto lets the planner installed by EnableSplit choose the
	// boundary per query.
	SplitAuto SplitPoint = -1
)

// SplitAt pins the boundary: 0 = whole-remote, Steps() = whole-local.
func SplitAt(boundary int) SplitPoint { return SplitPoint(boundary + 1) }

// boundary is SplitAt's inverse.
func (p SplitPoint) boundary() int { return int(p) - 1 }

// Reply is the answer to a Request.
type Reply struct {
	// Probs holds the answer's class probabilities, one row per sample, and
	// Entropy its predictive entropy per sample.
	Probs   *tensor.Tensor
	Entropy []float64

	// Winners is, per sample, the node whose answer was selected (0 = this
	// node, 1.. = peers in connection order); Live counts the nodes whose
	// results were gated and Total the ensemble. An Own or split query is
	// answered by this node's expert: every winner 0, Live = Total = 1.
	Winners     []int
	Live, Total int

	// Split is the boundary a split query executed (Steps() = fully local)
	// and Peer the node that ran its tail ("" = finished locally). When
	// Fallback is empty the answer is bit-identical to the local expert's
	// full forward (the range-execution contract). Fallback names the
	// degradation taken, if any: "version" (peer on a different model
	// version → whole-query offload, the answer is the PEER's), "transport"
	// (peer unreachable mid-query → tail finished locally), "no_peer" (no
	// available peer → ran fully local).
	Split    int
	Peer     string
	Fallback string
}

// Do answers one request (Fig 1d): broadcast, parallel local + remote
// prediction, gather, arg-min-entropy selection — or, for a split policy,
// head locally and tail on a peer, or, under Own, the local expert alone.
// When ctx expires or is cancelled, in-flight peer waits abort promptly (the
// mux link stays up — a caller giving up is not a peer fault) and the error
// is the ctx error, so upstream queues stop burning round trips on requests
// nobody is waiting for; what is left of ctx's deadline reaches every peer
// as the request's budget.
func (m *Master) Do(ctx context.Context, req Request) (Reply, error) {
	return m.do(ctx, m.Local(), req)
}

// do is Do on local, loaded once by the caller: a Node passes the model its
// request's version pin was checked against, so a swap landing in between
// cannot put other weights behind a pin that passed.
func (m *Master) do(ctx context.Context, local *Model, req Request) (Reply, error) {
	switch p := req.Policy; {
	case m.front:
		return m.route(ctx, req)
	case p.Gather == Own:
		return m.own(ctx, local.Snapshot, req.X, p.Split)
	case p.Split != SplitOff:
		return m.splitQuery(ctx, local, req.X, p.Split)
	default:
		return m.ensemble(ctx, local.Snapshot, req.X, p.Gather, p.Soft)
	}
}

// own answers an Own request on snap: the whole forward pass, or the tail
// from the boundary the input enters at, with exactly PredictWithEntropy's
// operations either way — so a tail is bit-identical to the full local
// forward. The pass lands in the "predict" histogram and, under a trace
// parent, in a "worker.predict" span whose node label names a tail's
// boundary. A panic inside it (an input of the wrong width) is recovered
// into an error and counted in "panics.recovered", so a node keeps serving.
func (m *Master) own(ctx context.Context, snap *nn.Snapshot, x *tensor.Tensor, at SplitPoint) (rep Reply, err error) {
	if snap == nil {
		return Reply{}, errNoExpert
	}
	if at < SplitOff || at.boundary() > snap.Steps() {
		return Reply{}, fmt.Errorf("cluster: an own request enters at SplitOff or SplitAt(0..%d), not split point %d", snap.Steps(), at)
	}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			m.metrics.Counter("panics.recovered").Inc()
			err = fmt.Errorf("cluster: predict panic: %v", r)
		}
		d := time.Since(start)
		m.metrics.Observe("predict", d)
		if parent := trace.FromContext(ctx); parent.Valid() {
			tr, node, status := m.Tracer(), "", ""
			if at != SplitOff {
				node = fmt.Sprintf("%s split=%d", tr.Node(), at.boundary())
			}
			if err != nil {
				status = trace.StatusError
			}
			tr.Record(parent, "worker.predict", node, status, start, d)
		}
	}()
	if at == SplitOff {
		probs, ent := snap.PredictWithEntropy(x)
		rep = Reply{Probs: probs, Entropy: ent.Data}
	} else {
		rep = runSplitTail(snap, x, at.boundary())
	}
	rep.Winners, rep.Live, rep.Total = make([]int, x.Shape[0]), 1, 1
	return rep, nil
}

// Infer is Do under the zero Policy and no deadline: the paper's protocol.
// It returns the combined probabilities and, per sample, the winning node.
func (m *Master) Infer(x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	return m.InferContext(context.Background(), x)
}

// InferContext is Infer under ctx (the serve.Backend contract).
func (m *Master) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	rep, err := m.Do(ctx, Request{X: x})
	return rep.Probs, rep.Winners, err
}

// InferQuorumContext is Do under the Quorum rule (the serve.DegradedBackend
// contract).
func (m *Master) InferQuorumContext(ctx context.Context, x *tensor.Tensor, soft time.Duration) (probs *tensor.Tensor, winners []int, live, total int, err error) {
	rep, err := m.Do(ctx, Request{X: x, Policy: Policy{Gather: Quorum, Soft: soft}})
	return rep.Probs, rep.Winners, rep.Live, rep.Total, err
}
