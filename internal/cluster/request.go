package cluster

import (
	"context"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// The request model: every inference a Master answers is one Request
// through one entry point, Do. How to answer is a Policy value; what a query
// needs beyond its policy — deadline, cancellation, trace parent — rides in
// ctx and from there into the frame header of every round trip the query
// makes (header.go).

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
	// Split, when not SplitOff, answers from the local expert by partial
	// offload instead of from the ensemble: head here, tail on one peer.
	// Gather and Soft do not apply to a split query.
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
	// results were gated and Total the ensemble. Zero for a split query.
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
// head locally and tail on a peer. When ctx expires or is cancelled,
// in-flight peer waits abort promptly (the mux link stays up — a caller
// giving up is not a peer fault) and the error is the ctx error, so
// upstream queues stop burning round trips on requests nobody is waiting
// for; what is left of ctx's deadline reaches every peer as the request's
// budget.
func (m *Master) Do(ctx context.Context, req Request) (Reply, error) {
	if req.Policy.Split != SplitOff {
		return m.splitQuery(ctx, req.X, req.Policy.Split)
	}
	return m.ensemble(ctx, req.X, req.Policy.Gather, req.Policy.Soft)
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
