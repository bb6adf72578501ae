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
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// RemoteMaster pipelines fabric inferences to one master address.
type RemoteMaster struct {
	addr    string
	timeout time.Duration // per-request link deadline; 0 = none
	metrics *metrics.Registry

	mu     sync.Mutex
	muxc   *muxClient
	closed bool
}

// NewRemoteMaster returns a client for the master serving at addr. Nothing
// is dialed until the first call; timeout bounds each round trip (a stalled
// pipeline is torn down and redialed, like the peer mux link).
func NewRemoteMaster(addr string, timeout time.Duration) *RemoteMaster {
	return &RemoteMaster{
		addr:    addr,
		timeout: timeout,
		metrics: new(metrics.Registry),
	}
}

// Addr returns the target master's address.
func (r *RemoteMaster) Addr() string { return r.addr }

// Metrics exposes the client's registry: the counters "fabric.requests",
// "fabric.errors" and "fabric.redials", the gauges "fabric.inflight" and
// "fabric.queue_depth".
func (r *RemoteMaster) Metrics() *metrics.Registry { return r.metrics }

// ensure returns a live mux client, dialing a fresh connection if the
// previous pipeline died.
func (r *RemoteMaster) ensure() (*muxClient, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("cluster: remote master %s is closed", r.addr)
	}
	if r.muxc != nil && r.muxc.alive() {
		return r.muxc, nil
	}
	if r.muxc != nil {
		r.metrics.Counter("fabric.redials").Inc()
	}
	conn, err := transport.Dial(r.addr, r.timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: remote master dial %s: %w", r.addr, err)
	}
	r.muxc = newMuxClient(conn, r.metrics.Gauge("fabric.inflight"), r.metrics.Gauge("fabric.queue_depth"),
		func(error) { r.metrics.Counter("fabric.link_down").Inc() })
	return r.muxc, nil
}

// call performs one fabric round trip: req as a MsgDo, its MsgReply back.
func (r *RemoteMaster) call(ctx context.Context, req Request) (Reply, error) {
	if err := ctx.Err(); err != nil {
		return Reply{}, err
	}
	mc, err := r.ensure()
	if err != nil {
		r.metrics.Counter("fabric.errors").Inc()
		return Reply{}, err
	}
	r.metrics.Counter("fabric.requests").Inc()
	// The frame header carries ctx across: the caller's remaining deadline
	// as a budget, so the master bounds its own gather without clock
	// synchronization, and the caller's span as the master's trace parent.
	reply, _, err := mc.roundTrip(ctx, "", encodeRequest(req), r.timeout, ctx.Done())
	if err != nil {
		r.metrics.Counter("fabric.errors").Inc()
		return Reply{}, err
	}
	if reply.typ == MsgErrorMux {
		r.metrics.Counter("fabric.errors").Inc()
		return Reply{}, fmt.Errorf("cluster: master %s: %s", r.addr, reply.payload)
	}
	rep, err := decodeReply(reply.payload, req.Policy.wide(), req.X.Shape[0], 0)
	if err != nil {
		// Undecodable or mis-shaped reply: corrupted pipeline, tear it down
		// like the peer mux path does.
		mc.fail(err)
		r.metrics.Counter("fabric.errors").Inc()
	}
	return rep, err
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
	r.mu.Lock()
	r.closed = true
	mc := r.muxc
	r.muxc = nil
	r.mu.Unlock()
	if mc != nil {
		mc.close()
	}
	return nil
}
