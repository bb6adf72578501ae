package cluster

// MasterServer exposes a Master's combined ensemble inference over TCP, so
// gateways on other machines can route across a fleet of masters (the
// shard-and-replicate tier). It speaks the fabric protocol: pipelined
// MsgFabricPredict requests answered out of order under a bounded window
// (mirroring the worker's mux discipline), plus pings, election probes,
// membership announces, and versioned model pushes that hot-swap the
// master's local expert without restart.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// masterFabricWindow bounds in-flight fabric requests per connection: the
// read loop blocks past it, so a flooding gateway gets TCP backpressure.
const masterFabricWindow = 64

// MasterServer serves one Master over the fabric protocol.
type MasterServer struct {
	master *Master
	id     int
	roster *Roster

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closed  bool
	addr    string
	version string
	onSwap  func(version string) // cutover hook; runs after a push is applied
}

// NewMasterServer wraps master for serving. id is the node's election
// identity (distinct per fabric node; higher wins).
func NewMasterServer(master *Master, id int) *MasterServer {
	return &MasterServer{
		master: master,
		id:     id,
		roster: NewRoster(),
		conns:  make(map[net.Conn]struct{}),
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return Member{Role: RoleMaster, Addr: s.addr, ID: s.id, Version: s.version}
}

// Roster exposes the server's membership view.
func (s *MasterServer) Roster() *Roster { return s.roster }

// Listen binds to addr and serves in the background, returning the bound
// address.
func (s *MasterServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: master server listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.addr = ln.Addr().String()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *MasterServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *MasterServer) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	defer func() {
		if r := recover(); r != nil {
			s.master.Counters().Counter("fabric.panics_recovered").Inc()
		}
	}()
	s.serveConn(conn)
}

func (s *MasterServer) serveConn(conn net.Conn) {
	cw := &connWriter{conn: conn}
	sem := make(chan struct{}, masterFabricWindow)
	br := bufio.NewReaderSize(conn, connReadBuffer)
	for {
		typ, payload, err := transport.ReadFrame(br)
		if err != nil {
			return
		}
		switch typ {
		case MsgFabricPredict:
			s.master.Counters().Counter("fabric.requests").Inc()
			id, body, err := splitMuxID(payload)
			if err != nil {
				_ = cw.write(MsgError, []byte(err.Error()))
				return
			}
			sem <- struct{}{}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() { <-sem }()
				defer func() {
					if r := recover(); r != nil {
						s.master.Counters().Counter("fabric.panics_recovered").Inc()
						conn.Close()
					}
				}()
				s.serveFabricPredict(cw, id, body)
			}()
		case MsgSplitPredict:
			s.master.Counters().Counter("fabric.requests.split").Inc()
			id, body, err := splitMuxID(payload)
			if err != nil {
				_ = cw.write(MsgError, []byte(err.Error()))
				return
			}
			sem <- struct{}{}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() { <-sem }()
				defer func() {
					if r := recover(); r != nil {
						s.master.Counters().Counter("fabric.panics_recovered").Inc()
						conn.Close()
					}
				}()
				s.serveSplitPredict(cw, id, body)
			}()
		case MsgPing:
			if err := cw.write(MsgPong, nil); err != nil {
				return
			}
		case MsgElection:
			if err := cw.write(MsgElectionOK, electionReply(s.id)); err != nil {
				return
			}
		case MsgAnnounce:
			reply, aerr := handleAnnounce(s.roster, s.Member(), payload)
			if aerr != nil {
				_ = cw.write(MsgError, []byte(aerr.Error()))
				return
			}
			if err := cw.write(MsgAnnounceOK, reply); err != nil {
				return
			}
		case MsgModelPush:
			version, perr := s.applyModelPush(payload)
			if perr != nil {
				if err := cw.write(MsgError, []byte(perr.Error())); err != nil {
					return
				}
				continue
			}
			if err := cw.write(MsgModelPushOK, []byte(version)); err != nil {
				return
			}
		default:
			_ = cw.write(MsgError, []byte(fmt.Sprintf("unknown frame type %d", typ)))
			return
		}
	}
}

// serveFabricPredict answers one pipelined fabric request. Failures are
// per-request MsgErrorMux frames; the connection and the pipeline survive.
func (s *MasterServer) serveFabricPredict(cw *connWriter, id uint32, body []byte) {
	mode, softNs, budgetNs, x, err := decodeFabricRequest(body)
	if err != nil {
		_ = cw.writeMux(MsgErrorMux, id, []byte(err.Error()))
		return
	}
	ctx := context.Background()
	if budgetNs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(budgetNs))
		defer cancel()
	}
	probs, winners, live, total, err := s.dispatch(ctx, mode, softNs, x)
	if err != nil {
		_ = cw.writeMux(MsgErrorMux, id, []byte(err.Error()))
		return
	}
	_ = cw.writeMux(MsgFabricResult, id, encodeFabricResult(probs, winners, live, total))
}

// serveSplitPredict answers one partial-offload tail against the master's
// local expert snapshot, sharing the worker's serving body (version check,
// recovered range execution, full-precision result).
func (s *MasterServer) serveSplitPredict(cw *connWriter, id uint32, body []byte) {
	snap := s.master.LocalSnapshot()
	if snap == nil {
		_ = cw.writeMux(MsgErrorMux, id, []byte("master has no local expert for split serving"))
		return
	}
	result, errText := runSplitBody(snap, s.ModelVersion(), body, s.master.tracer, s.master.Histograms())
	if errText != "" {
		_ = cw.writeMux(MsgErrorMux, id, []byte(errText))
		return
	}
	_ = cw.writeMux(MsgSplitResult, id, result)
}

func (s *MasterServer) dispatch(ctx context.Context, mode byte, softNs uint64, x *tensor.Tensor) (probs *tensor.Tensor, winners []int, live, total int, err error) {
	if mode == fabricModeQuorum {
		return s.master.InferQuorumContext(ctx, x, time.Duration(softNs))
	}
	probs, winners, err = s.master.InferContext(ctx, x)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	n := s.master.Nodes()
	return probs, winners, n, n, nil
}

// applyModelPush swaps the master's local expert (or just re-labels on a
// version-only push) and runs the cutover hook before acking.
func (s *MasterServer) applyModelPush(payload []byte) (version string, err error) {
	version, snap, err := DecodeModelPush(payload)
	if err != nil {
		return "", err
	}
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
	return version, nil
}

// Announce performs one client-side membership exchange against addr using
// this server's own descriptor, merging the reply into its roster.
func (s *MasterServer) Announce(addr string, timeout time.Duration) (Member, error) {
	return Announce(addr, s.Member(), s.roster, timeout)
}

// SwapLocalNetwork compiles net and hot-swaps the master's local expert
// under the given version label, running the same cutover hook as a wire
// push — the co-located (-swap-watch) reload path in teamnet-serve.
func (s *MasterServer) SwapLocalNetwork(net *nn.Network, version string) error {
	snap, err := nn.NewSnapshot(net)
	if err != nil {
		return err
	}
	s.master.SwapLocal(snap)
	s.mu.Lock()
	s.version = version
	hook := s.onSwap
	s.mu.Unlock()
	if hook != nil {
		hook(version)
	}
	return nil
}

// Close stops serving and closes open connections.
func (s *MasterServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
