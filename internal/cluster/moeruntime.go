package cluster

import (
	"fmt"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/moe"
	"github.com/teamnet/teamnet/internal/mpi"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// SG-MoE distributed runtimes (paper Section VI-A): "each expert is
// executed on one edge node, and the gate is placed on one of the edge
// nodes". Two transports are evaluated: gRPC (SG-MoE-G, here the
// transport.RPC layer) and MPI (SG-MoE-M, here the mpi substrate). Unlike
// TeamNet's unconditional broadcast, the master must run the gate first and
// only then dispatch to the selected expert nodes — the serialization the
// inference-time comparison measures.

// MoEExpertServer serves one SG-MoE expert as an RPC service (SG-MoE-G's
// worker side). The method "predict" maps an input tensor to the expert's
// class probabilities. Traced RPC calls (frame type rpcRequestTraced) are
// recorded as "moe.expert.predict" spans under the caller's trace id when a
// tracer is installed with SetTracer.
type MoEExpertServer struct {
	srv     *transport.RPCServer
	metrics *metrics.Registry
	tracer  *tracerRef
}

// ServeMoEExpert starts serving the expert on addr and returns the bound
// address and the server handle.
func ServeMoEExpert(expert *nn.Network, addr string) (string, *MoEExpertServer, error) {
	snap, err := nn.NewSnapshot(expert)
	if err != nil {
		return "", nil, fmt.Errorf("cluster: moe expert snapshot: %w", err)
	}
	s := &MoEExpertServer{
		srv:     transport.NewRPCServer(),
		metrics: new(metrics.Registry),
		tracer:  &tracerRef{},
	}
	s.srv.Register("predict", func(req []byte) ([]byte, error) {
		s.metrics.Counter("requests").Inc()
		x, _, err := transport.DecodeTensor(req)
		if err != nil {
			s.metrics.Counter("errors.decode").Inc()
			return nil, fmt.Errorf("cluster: moe predict decode: %w", err)
		}
		start := time.Now()
		probs := snap.Predict(x)
		s.metrics.Observe("predict", time.Since(start))
		return transport.EncodeTensor(probs), nil
	})
	// The RPC server times every handler call itself; for traced requests
	// it hands us the propagated context so the span lands under the
	// master's trace id. (This measures handler time including the replica
	// lock wait, which is exactly what the master's network/compute split
	// subtracts out.)
	s.srv.OnTraced(func(method string, tc transport.TraceContext, start time.Time, d time.Duration) {
		parent := trace.Context{TraceID: tc.TraceID, SpanID: tc.SpanID}
		s.tracer.get().Record(parent, "moe.expert."+method, "", "", start, d)
	})
	bound, err := s.srv.Listen(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, s, nil
}

// Metrics exposes the expert server's registry: the request counters and
// the "predict" latency histogram.
func (s *MoEExpertServer) Metrics() *metrics.Registry { return s.metrics }

// SetTracer installs (or, with nil, removes) the expert server's span
// collector for traced RPC requests.
func (s *MoEExpertServer) SetTracer(tr *trace.Tracer) { s.tracer.set(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (s *MoEExpertServer) Tracer() *trace.Tracer { return s.tracer.get() }

// Close stops the expert server.
func (s *MoEExpertServer) Close() error { return s.srv.Close() }

// MoEMaster runs the SG-MoE gate locally and dispatches the selected
// experts over RPC (the SG-MoE-G master side).
type MoEMaster struct {
	model   *moe.SGMoE
	clients []*transport.RPCClient // index = expert id
	metrics *metrics.Registry
	tracer  *tracerRef
}

// NewMoEMaster connects to one expert server per expert, in expert order.
func NewMoEMaster(model *moe.SGMoE, addrs []string) (*MoEMaster, error) {
	if len(addrs) != model.K() {
		return nil, fmt.Errorf("cluster: %d expert addrs for %d experts", len(addrs), model.K())
	}
	m := &MoEMaster{model: model, metrics: new(metrics.Registry), tracer: &tracerRef{}}
	for i, addr := range addrs {
		cli, err := transport.DialRPC(addr)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("cluster: dial expert %d: %w", i, err)
		}
		m.clients = append(m.clients, cli)
	}
	return m, nil
}

// Metrics exposes the master's registry: the latency histograms
// "infer.total", "gate", "expert.<i>.rtt", ...
func (m *MoEMaster) Metrics() *metrics.Registry { return m.metrics }

// SetTracer installs (or, with nil, removes) the span collector. When set,
// Infer records a span tree per query and dispatches traced RPC calls so
// trace-aware expert servers record their side too. Traced calls require
// trace-aware servers (see transport.RPCClient.CallTraced); leave the
// tracer nil when talking to pre-trace expert builds.
func (m *MoEMaster) SetTracer(tr *trace.Tracer) { m.tracer.set(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (m *MoEMaster) Tracer() *trace.Tracer { return m.tracer.get() }

// Infer gates locally, dispatches the top-k experts in parallel over RPC,
// and mixes their returned probabilities with the gate weights.
func (m *MoEMaster) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	tr := m.tracer.get()
	root := tr.Start(trace.Context{}, "moe.infer")
	start := time.Now()
	out, err := m.infer(x, tr, root.Ctx())
	root.EndErr(err)
	m.metrics.Observe("infer.total", time.Since(start))
	return out, err
}

func (m *MoEMaster) infer(x *tensor.Tensor, tr *trace.Tracer, root trace.Context) (*tensor.Tensor, error) {
	batch := x.Shape[0]
	gateStart := time.Now()
	indices, weights := m.model.GateSelect(x)
	gateDur := time.Since(gateStart)
	m.metrics.Observe("gate", gateDur)
	tr.Record(root, "gate", "", "", gateStart, gateDur)

	// Group rows by selected expert so each expert gets one call.
	perExpert := make([][]int, m.model.K())
	for b, idx := range indices {
		for _, e := range idx {
			perExpert[e] = append(perExpert[e], b)
		}
	}

	type reply struct {
		expert int
		rows   []int
		probs  *tensor.Tensor
		err    error
	}
	var wg sync.WaitGroup
	replies := make([]reply, 0, m.model.K())
	var mu sync.Mutex
	for e, rows := range perExpert {
		if len(rows) == 0 {
			continue
		}
		wg.Add(1)
		go func(e int, rows []int) {
			defer wg.Done()
			r := reply{expert: e, rows: rows}
			sp := tr.Start(root, fmt.Sprintf("expert %d", e))
			payload := transport.EncodeTensor(x.SelectRows(rows))
			rttStart := time.Now()
			resp, remote, err := m.clients[e].CallTraced("predict", payload,
				transport.TraceContext{TraceID: sp.Ctx().TraceID, SpanID: sp.Ctx().SpanID})
			rtt := time.Since(rttStart)
			r.err = err
			if err == nil {
				r.probs, _, r.err = transport.DecodeTensor(resp)
			}
			if err == nil {
				m.metrics.Observe(fmt.Sprintf("expert.%d.rtt", e), rtt)
				if remote > 0 {
					// The traced response reports server handler time;
					// the remainder of the round trip is the wire.
					network := rtt - remote
					if network < 0 {
						network = 0
					}
					tr.Record(sp.Ctx(), "network", "", "", rttStart, network)
					tr.Record(sp.Ctx(), "compute", fmt.Sprintf("expert-%d", e), "",
						rttStart.Add(network/2), remote)
				}
			}
			sp.EndErr(r.err)
			mu.Lock()
			replies = append(replies, r)
			mu.Unlock()
		}(e, rows)
	}
	wg.Wait()

	out := tensor.New(batch, m.model.Classes)
	for _, r := range replies {
		if r.err != nil {
			return nil, fmt.Errorf("cluster: expert %d rpc: %w", r.expert, r.err)
		}
		for ri, b := range r.rows {
			w := 0.0
			for j, ei := range indices[b] {
				if ei == r.expert {
					w = weights[b][j]
					break
				}
			}
			dst := out.RowSlice(b)
			src := r.probs.RowSlice(ri)
			for c := range dst {
				dst[c] += w * src[c]
			}
		}
	}
	return out, nil
}

// Close drops all expert connections.
func (m *MoEMaster) Close() error {
	var firstErr error
	for _, c := range m.clients {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// MoEMPIWorker is the SG-MoE-M worker loop: rank r serves expert r-1,
// receiving row batches from rank 0 and returning probabilities, until rank
// 0 sends the zero-row shutdown sentinel.
func MoEMPIWorker(comm *mpi.Comm, expert *nn.Network) error {
	for {
		x, err := comm.Recv(0)
		if err != nil {
			return fmt.Errorf("cluster: moe-mpi worker rank %d recv: %w", comm.Rank(), err)
		}
		if x.Shape[0] == 0 { // shutdown sentinel
			return nil
		}
		probs := expert.Predict(x)
		if err := comm.Send(0, probs); err != nil {
			return fmt.Errorf("cluster: moe-mpi worker rank %d send: %w", comm.Rank(), err)
		}
	}
}

// MoEMPIMaster drives SG-MoE inference over the MPI substrate from rank 0:
// gate locally, send each selected expert its rows, receive probabilities,
// mix. Experts live on ranks 1..K; rank 0 holds only the gate.
type MoEMPIMaster struct {
	model *moe.SGMoE
	comm  *mpi.Comm
}

// NewMoEMPIMaster wraps rank 0 of a (K+1)-rank world.
func NewMoEMPIMaster(model *moe.SGMoE, comm *mpi.Comm) (*MoEMPIMaster, error) {
	if comm.Rank() != 0 {
		return nil, fmt.Errorf("cluster: moe-mpi master must be rank 0, got %d", comm.Rank())
	}
	if comm.Size() != model.K()+1 {
		return nil, fmt.Errorf("cluster: moe-mpi world %d != K+1 = %d", comm.Size(), model.K()+1)
	}
	return &MoEMPIMaster{model: model, comm: comm}, nil
}

// Infer performs one gated inference round over MPI.
func (m *MoEMPIMaster) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	batch := x.Shape[0]
	indices, weights := m.model.GateSelect(x)
	perExpert := make([][]int, m.model.K())
	for b, idx := range indices {
		for _, e := range idx {
			perExpert[e] = append(perExpert[e], b)
		}
	}
	// Send phase (rank order, matching the workers' Recv).
	for e, rows := range perExpert {
		if len(rows) == 0 {
			continue
		}
		if err := m.comm.Send(e+1, x.SelectRows(rows)); err != nil {
			return nil, fmt.Errorf("cluster: moe-mpi send expert %d: %w", e, err)
		}
	}
	// Gather phase.
	out := tensor.New(batch, m.model.Classes)
	for e, rows := range perExpert {
		if len(rows) == 0 {
			continue
		}
		probs, err := m.comm.Recv(e + 1)
		if err != nil {
			return nil, fmt.Errorf("cluster: moe-mpi recv expert %d: %w", e, err)
		}
		for ri, b := range rows {
			w := 0.0
			for j, ei := range indices[b] {
				if ei == e {
					w = weights[b][j]
					break
				}
			}
			dst := out.RowSlice(b)
			src := probs.RowSlice(ri)
			for c := range dst {
				dst[c] += w * src[c]
			}
		}
	}
	return out, nil
}

// Shutdown releases all worker ranks with the zero-row sentinel.
func (m *MoEMPIMaster) Shutdown() error {
	features := 1
	for e := 0; e < m.model.K(); e++ {
		if err := m.comm.Send(e+1, tensor.New(0, features)); err != nil {
			return fmt.Errorf("cluster: moe-mpi shutdown rank %d: %w", e+1, err)
		}
	}
	return nil
}
