package cluster

import (
	"context"
	"fmt"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/moe"
	"github.com/teamnet/teamnet/internal/mpi"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// SG-MoE distributed runtimes (paper Section VI-A): "each expert is
// executed on one edge node, and the gate is placed on one of the edge
// nodes". Two transports are evaluated: gRPC (SG-MoE-G) and MPI (SG-MoE-M,
// here the mpi substrate). Unlike TeamNet's unconditional broadcast, the
// master must run the gate first and only then dispatch to the selected
// expert nodes — the serialization the inference-time comparison measures.
//
// The live SG-MoE-G runtime shares TeamNet's socket stack: an expert node is
// a worker Node serving the expert's snapshot (NewWorker), and the master
// below dispatches over a coordinator Master's supervised peer links. The
// paper's SG-MoE-G and SG-MoE-M table cells both price one recorded run of
// the MPI runtime (MoEMPIMaster and MoEMPIWorker) under the gRPC and the MPI
// transport (internal/bench/replay.go); gRPC is not re-enacted here.

// MoEMaster runs the SG-MoE gate locally and dispatches each selected
// expert's rows as an {Own, SplitOff} request on that expert's peer link (the
// SG-MoE-G master side), reading the reply's probabilities and ignoring its
// entropies. The links are a coordinator Master's, so a query inherits the
// frame header (budget, trace parent), the "peer <addr>" span with its
// network/compute split from the reply header, and redial, retry budget and
// breaker.
type MoEMaster struct {
	model  *moe.SGMoE
	master *Master // no local expert; peer i is expert i
}

// NewMoEMaster connects to one expert node per expert, in expert order.
func NewMoEMaster(model *moe.SGMoE, addrs []string) (*MoEMaster, error) {
	if len(addrs) != model.K() {
		return nil, fmt.Errorf("cluster: %d expert addrs for %d experts", len(addrs), model.K())
	}
	m := &MoEMaster{model: model, master: NewMaster(nil, model.Classes)}
	for i, addr := range addrs {
		if err := m.master.Connect(addr); err != nil {
			m.Close()
			return nil, fmt.Errorf("cluster: dial expert %d: %w", i, err)
		}
	}
	return m, nil
}

// Metrics exposes the master's registry: the latency histograms
// "infer.total" and "gate" and the per-peer series of Master.Metrics.
func (m *MoEMaster) Metrics() *metrics.Registry { return m.master.metrics }

// SetTracer installs (or, with nil, removes) the span collector. When set,
// Infer records a span tree per query and every dispatch carries the
// query's trace parent, so an expert node with a tracer of its own records
// its "worker.predict" span under the same trace id.
func (m *MoEMaster) SetTracer(tr *trace.Tracer) { m.master.SetTracer(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (m *MoEMaster) Tracer() *trace.Tracer { return m.master.Tracer() }

// Infer gates locally, dispatches the top-k experts in parallel over their
// peer links, and mixes their returned probabilities with the gate weights.
func (m *MoEMaster) Infer(x *tensor.Tensor) (out *tensor.Tensor, err error) {
	tr := m.master.Tracer()
	root := tr.Start(trace.Context{}, "moe.infer")
	start := time.Now()
	defer func() {
		root.EndErr(err)
		m.master.metrics.Observe("infer.total", time.Since(start))
	}()
	indices, weights := m.model.GateSelect(x)
	gateDur := time.Since(start)
	m.master.metrics.Observe("gate", gateDur)
	tr.Record(root.Ctx(), "gate", "", "", start, gateDur)

	// The root span rides to the expert nodes as their trace parent; an
	// untraced master sends none. Returning cancels the round trips still in
	// flight (a caller abort: no breaker accounting).
	ctx, cancel := context.WithCancel(trace.NewContext(context.Background(), root.Ctx()))
	defer cancel()
	peers := m.master.snapshotPeers()
	replies := make([]chan slotResult, len(peers))
	return moeDispatch(m.model, x, indices, weights,
		func(e int, rows *tensor.Tensor) error {
			replies[e] = make(chan slotResult, 1)
			q := queryOf(Request{X: rows, Policy: Policy{Gather: Own}}, m.master.classes)
			go func() {
				res, err := peers[e].do(ctx, q, root.Ctx())
				replies[e] <- slotResult{res: res, err: err}
			}()
			return nil
		},
		func(e int) (*tensor.Tensor, error) {
			r := <-replies[e]
			return r.res.Probs, r.err
		})
}

// Close drops all expert connections.
func (m *MoEMaster) Close() error { return m.master.Close() }

// moeDispatch is the one SG-MoE dispatch-and-mix body behind both
// transports: group the batch's rows by gate-selected expert, send every
// selected expert its rows (in expert order), then receive each one's
// probabilities (same order) and add them, gate-weighted, into the output.
// send and recv are how an expert's rows leave and its probabilities return.
func moeDispatch(model *moe.SGMoE, x *tensor.Tensor, indices [][]int, weights [][]float64,
	send func(expert int, rows *tensor.Tensor) error, recv func(expert int) (*tensor.Tensor, error)) (*tensor.Tensor, error) {
	perExpert := make([][]int, model.K())
	for b, idx := range indices {
		for _, e := range idx {
			perExpert[e] = append(perExpert[e], b)
		}
	}
	for e, rows := range perExpert {
		if len(rows) == 0 {
			continue
		}
		if err := send(e, x.SelectRows(rows)); err != nil {
			return nil, fmt.Errorf("cluster: moe send expert %d: %w", e, err)
		}
	}
	out := tensor.New(x.Shape[0], model.Classes)
	for e, rows := range perExpert {
		if len(rows) == 0 {
			continue
		}
		probs, err := recv(e)
		if err != nil {
			return nil, fmt.Errorf("cluster: moe recv expert %d: %w", e, err)
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
		comm.Work(nn.NetworkFLOPs(expert) * float64(x.Shape[0]))
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

// Infer performs one gated inference round over MPI: experts live on ranks
// 1..K, and the sends go out in rank order, matching the workers' Recv.
func (m *MoEMPIMaster) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	m.comm.Work(nn.NetworkFLOPs(m.model.Gate) * float64(x.Shape[0]))
	indices, weights := m.model.GateSelect(x)
	return moeDispatch(m.model, x, indices, weights,
		func(e int, rows *tensor.Tensor) error { return m.comm.Send(e+1, rows) },
		func(e int) (*tensor.Tensor, error) { return m.comm.Recv(e + 1) })
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
