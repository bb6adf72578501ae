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
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
)

// MasterServer serves one Master over the fabric protocol.
type MasterServer struct {
	master *Master
	id     int
	srv    *frameServer

	mu      sync.Mutex
	version string
	onSwap  func(version string) // cutover hook; runs after a push is applied
}

// NewMasterServer wraps master for serving. id is the node's election
// identity (distinct per fabric node; higher wins).
func NewMasterServer(master *Master, id int) *MasterServer {
	s := &MasterServer{master: master, id: id}
	s.srv = &frameServer{
		member:      s.Member,
		roster:      NewRoster(),
		applyPush:   s.applyModelPush,
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

// SetOnSwap installs the cutover hook: it runs after an incoming model push
// has been applied (snapshot swapped, version recorded) and before the push
// is acked. A co-located gateway uses it to call SetModelVersion, which
// purges its response cache — the swap-before-invalidate ordering the
// versioned cache put relies on.
func (s *MasterServer) SetOnSwap(fn func(version string)) {
	s.mu.Lock()
	s.onSwap = fn
	s.mu.Unlock()
}

// SetModelVersion labels the currently served model (startup label).
func (s *MasterServer) SetModelVersion(v string) {
	s.mu.Lock()
	s.version = v
	s.mu.Unlock()
}

// ModelVersion returns the served model's version label.
func (s *MasterServer) ModelVersion() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Member returns this master's membership descriptor (valid after Listen).
func (s *MasterServer) Member() Member {
	return Member{Role: RoleMaster, Addr: s.srv.boundAddr(), ID: s.id, Version: s.ModelVersion()}
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
func (s *MasterServer) serveFabricPredict(ctx context.Context, body []byte) (byte, []byte, time.Duration) {
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
// local expert snapshot, sharing the worker's serving body (recovered range
// execution, full-precision result).
func (s *MasterServer) serveSplitPredict(ctx context.Context, body []byte) (byte, []byte, time.Duration) {
	s.master.metrics.Counter("fabric.requests.split").Inc()
	snap := s.master.LocalSnapshot()
	if snap == nil {
		return errorReply(errors.New("master has no local expert for split serving"))
	}
	return serveSplit(ctx, snap, body, s.master.tracer, s.master.metrics)
}

// applyModelPush swaps the master's local expert (or just re-labels on a
// version-only push, snap nil) and runs the cutover hook — the shared tail
// of a wire push and a co-located reload.
func (s *MasterServer) applyModelPush(version string, snap *nn.Snapshot) {
	if snap != nil {
		s.master.SwapLocal(snap)
	}
	s.mu.Lock()
	s.version = version
	hook := s.onSwap
	s.mu.Unlock()
	if hook != nil {
		hook(version)
	}
}

// Announce performs one client-side membership exchange against addr using
// this server's own descriptor, merging the reply into its roster.
func (s *MasterServer) Announce(addr string, timeout time.Duration) (Member, error) {
	return Announce(addr, s.Member(), s.srv.roster, timeout)
}

// SwapLocalNetwork compiles net and hot-swaps the master's local expert
// under the given version label, running the same cutover hook as a wire
// push — the co-located (-swap-watch) reload path in teamnet-serve.
func (s *MasterServer) SwapLocalNetwork(net *nn.Network, version string) error {
	snap, err := nn.NewSnapshot(net)
	if err != nil {
		return err
	}
	s.applyModelPush(version, snap)
	return nil
}

// Close stops serving, closes open connections and waits for in-flight
// requests to return.
func (s *MasterServer) Close() error { return s.srv.close() }
