package cluster

// MasterServer exposes a Master's combined ensemble inference over TCP, so
// gateways on other machines can route across a fleet of masters (the
// shard-and-replicate tier). It is the shared server loop (server.go) with
// the fabric request kinds: pipelined MsgFabricPredict requests answered
// with the combined ensemble result, MsgSplitPredict tails finished on the
// master's local expert, and versioned model pushes that hot-swap that
// expert without restart.

import (
	"context"
	"fmt"
	"time"
)

// MasterServer serves one Master over the fabric protocol. It keeps no model
// state of its own: what it serves, and under which label, is its master's
// local model.
type MasterServer struct {
	master *Master
	id     int
	srv    *frameServer

	// Cutover is what an incoming model push runs before it is acked, and an
	// error from it refuses the push: Master.SetLocal unless replaced (before
	// Listen). A co-located gateway installs the function that swaps the
	// master's local model and then re-labels the gateway, which purges its
	// response cache — the swap-before-invalidate order the versioned cache
	// put relies on.
	Cutover func(Model) error
}

// NewMasterServer wraps master for serving. id is the node's election
// identity (distinct per fabric node; higher wins).
func NewMasterServer(master *Master, id int) *MasterServer {
	s := &MasterServer{master: master, id: id, Cutover: master.SetLocal}
	s.srv = &frameServer{
		member:      s.Member,
		roster:      NewRoster(),
		model:       master.Local,
		swap:        func(pushed Model) error { return s.Cutover(pushed) },
		metrics:     master.metrics,
		panicName:   "fabric.panics_recovered",
		expiredName: "fabric.requests.expired",
		kinds: map[byte]handler{
			MsgFabricPredict: s.serveFabricPredict,
			MsgSplitPredict:  s.serveSplitPredict,
		},
	}
	return s
}

// Member returns this master's membership descriptor (valid after Listen).
func (s *MasterServer) Member() Member {
	return Member{Role: RoleMaster, Addr: s.srv.boundAddr(), ID: s.id, Version: s.master.Local().Version}
}

// Roster exposes the server's membership view.
func (s *MasterServer) Roster() *Roster { return s.srv.roster }

// Listen binds to addr and serves in the background, returning the bound
// address.
func (s *MasterServer) Listen(addr string) (string, error) {
	bound, err := s.srv.listen(addr)
	if err != nil {
		return "", fmt.Errorf("cluster: master server listen %s: %w", addr, err)
	}
	return bound, nil
}

// serveFabricPredict answers one pipelined fabric request. Failures are
// per-request MsgErrorMux frames; the connection and the pipeline survive.
// ctx is the request's own: the gateway's remaining deadline bounds the
// gather, and the gateway's span parents the master's "infer" tree.
func (s *MasterServer) serveFabricPredict(ctx context.Context, _ *Model, body []byte) (byte, []byte, time.Duration) {
	s.master.metrics.Counter("fabric.requests").Inc()
	req, err := decodeFabricRequest(body)
	if err != nil {
		return errorReply(err)
	}
	rep, err := s.master.Do(ctx, req)
	if err != nil {
		return errorReply(err)
	}
	return MsgFabricResult, encodeFabricResult(rep), 0
}

// serveSplitPredict answers one partial-offload tail against the master's
// local model — the one its pin was checked against — sharing the worker's
// serving body (recovered range execution, full-precision result).
func (s *MasterServer) serveSplitPredict(ctx context.Context, local *Model, body []byte) (byte, []byte, time.Duration) {
	s.master.metrics.Counter("fabric.requests.split").Inc()
	return serveSplit(ctx, local, body, s.master.tracer, s.master.metrics)
}

// Announce performs one client-side membership exchange against addr using
// this server's own descriptor, merging the reply into its roster.
func (s *MasterServer) Announce(addr string, timeout time.Duration) (Member, error) {
	return Announce(addr, s.Member(), s.srv.roster, timeout)
}

// Close stops serving, closes open connections and waits for in-flight
// requests to return.
func (s *MasterServer) Close() error { return s.srv.close() }
