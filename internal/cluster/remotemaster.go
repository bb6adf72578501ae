package cluster

// RemoteMaster is the gateway-side client for one master Node: it
// satisfies the serve package's Backend and DegradedBackend contracts
// (structurally — serve never imports cluster types) over a single
// mux-pipelined TCP connection, so a gateway can treat a master three hops
// away exactly like an in-process one. The link self-heals: a dead pipeline
// fails every pending request once, and the next call redials fresh.

import (
	"context"
	"fmt"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/tensor"
)

// RemoteMaster pipelines fabric inferences to one master address.
type RemoteMaster struct {
	timeout time.Duration // per-request link deadline; 0 = none
	metrics *metrics.Registry
	link    *link
}

// NewRemoteMaster returns a client for the master serving at addr. Nothing
// is dialed until the first call; timeout bounds each round trip (a stalled
// pipeline is torn down and redialed, like the peer mux link).
func NewRemoteMaster(addr string, timeout time.Duration) *RemoteMaster {
	reg := new(metrics.Registry)
	return &RemoteMaster{timeout: timeout, metrics: reg, link: &link{
		addr: addr, inflight: reg.Gauge("fabric.inflight"), queued: reg.Gauge("fabric.queue_depth"),
		redials: reg.Counter("fabric.redials"), onDown: func(error) { reg.Counter("fabric.link_down").Inc() },
	}}
}

// Addr returns the target master's address.
func (r *RemoteMaster) Addr() string { return r.link.addr }

// Metrics exposes the client's registry: the counters "fabric.requests",
// "fabric.errors", "fabric.redials" and "fabric.link_down", the gauges
// "fabric.inflight" and "fabric.queue_depth".
func (r *RemoteMaster) Metrics() *metrics.Registry { return r.metrics }

// call performs one fabric round trip — req as a MsgDo, its MsgReply back —
// as the single attempt a peer makes, without its retries or breaker.
func (r *RemoteMaster) call(ctx context.Context, req Request) (Reply, error) {
	if err := ctx.Err(); err != nil {
		return Reply{}, err
	}
	// The frame header carries ctx across: the caller's remaining deadline
	// as a budget, so the master bounds its own gather without clock
	// synchronization, and the caller's span as the master's trace parent.
	rep, _, err, outcome := r.link.attempt(ctx, ctx.Done(), queryOf(req, 0), r.timeout, r.timeout, r.metrics.Counter("fabric.requests"))
	switch outcome {
	case muxOK:
		return rep, nil
	case muxDialFault:
		err = fmt.Errorf("cluster: remote master: %w", err)
	case muxWorkerErr:
		err = fmt.Errorf("cluster: master %s: %w", r.Addr(), err)
	}
	r.metrics.Counter("fabric.errors").Inc()
	return Reply{}, err
}

// InferContext asks the master for a strict full-ensemble inference
// (serve.Backend contract).
func (r *RemoteMaster) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	rep, err := r.call(ctx, Request{X: x})
	return rep.Probs, rep.Winners, err
}

// InferQuorumContext asks the master for a partial-quorum inference
// (serve.DegradedBackend contract): the master answers with whatever subset
// replied once soft elapses, and live < total marks the answer degraded.
func (r *RemoteMaster) InferQuorumContext(ctx context.Context, x *tensor.Tensor, soft time.Duration) (probs *tensor.Tensor, winners []int, live, total int, err error) {
	rep, err := r.call(ctx, Request{X: x, Policy: Policy{Gather: Quorum, Soft: soft}})
	return rep.Probs, rep.Winners, rep.Live, rep.Total, err
}

// Close tears the pipeline down; pending requests fail promptly.
func (r *RemoteMaster) Close() error {
	r.link.close()
	return nil
}
