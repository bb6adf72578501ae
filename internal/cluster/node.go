package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// Node is the one listening type of the runtime: every process that accepts
// TeamNet frames — the edge node of Figure 1(d) serving one expert, the
// master a gateway reaches over the fabric, an SG-MoE-G expert node — is a
// Node running the server loop in server.go over one Master. The master's
// local model is what the node serves and what a model push swaps; its
// registry and tracer are the node's. A node whose master has no peers is a
// plain worker; one whose master has peers and no local expert is a pure
// coordinator; every mix in between answers the same request kinds:
//
//   - MsgPredictMux: this node's expert on the input — probabilities and
//     predictive entropies, the expert's compute time in the reply header
//     and, for a request that carries a trace parent, a "worker.predict"
//     span in the node's tracer.
//   - MsgSplitPredict: a partial-offload tail finished on that expert.
//   - MsgFabricPredict: the combined answer of Master.Do — for a node
//     without peers, its own expert's with Live = Total = 1.
//
// A kind the node has nothing to answer with (an expert kind on a pure
// coordinator) costs the caller one MsgErrorMux.
type Node struct {
	role   string // what Member announces: RoleWorker or RoleMaster
	id     int    // election identity; higher wins
	master *Master
	roster *Roster

	// Cutover is what an incoming model push runs before it is acked, and an
	// error from it refuses the push: Swap unless replaced (before Listen).
	// A co-located gateway installs the function that swaps the master's
	// local model and then re-labels the gateway, which purges its response
	// cache — the swap-before-invalidate order the versioned cache put
	// relies on.
	Cutover func(Model) error

	// kinds is requestKinds on every node; a field so the conformance rows
	// can add a kind that panics and one that blocks.
	kinds map[byte]kind

	mu     sync.Mutex
	ln     net.Listener
	addr   string // bound listen address, set by Listen
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// kind is how one pipelined request frame type is served. The header has
// been parsed and honoured by the time serve runs: ctx carries the request's
// remaining budget as its deadline and the request's trace parent as its
// ambient span, so a handler that sends requests of its own passes on what
// it received; model is the served model the request's version pin was
// checked against, the one a handler that runs the node's own expert must
// run. body is the payload after the header. serve returns the reply frame
// type and body — an error is just a MsgErrorMux reply — and the time its
// forward pass took (0 if none ran), which goes back in the reply header.
// Handlers run concurrently.
type kind struct {
	serve func(n *Node, ctx context.Context, model *Model, body []byte) (replyType byte, reply []byte, compute time.Duration)
	// series prefixes the kind's counters: "requests" (served),
	// "requests.expired" (budget ran out unserved), "panics.recovered".
	series string
}

// requestKinds is the request table of every node.
var requestKinds = map[byte]kind{
	MsgPredictMux:    {(*Node).servePredict, ""},
	MsgSplitPredict:  {(*Node).serveSplit, ""},
	MsgFabricPredict: {(*Node).serveFabric, "fabric."},
}

// NewNode wraps master for serving under the given role (RoleWorker,
// RoleMaster). id is the node's election identity (any distinct non-negative
// int per fleet; higher ids win elections). The master stays the caller's:
// Close stops the node's listener, not the master's peer links.
func NewNode(role string, master *Master, id int) *Node {
	n := &Node{role: role, id: id, master: master, roster: NewRoster(), kinds: requestKinds}
	n.Cutover = n.Swap
	return n
}

// NewWorker compiles an expert network into a frozen inference snapshot and
// serves it as a worker node with no peers. It panics on a nil or
// uncompilable expert (programmer error at construction).
func NewWorker(expert *nn.Network, id int) *Node {
	return NewWorkerModel(Model{Snapshot: nn.MustSnapshot(expert)}, id)
}

// NewWorkerModel is NewWorker for an already-compiled, already-labelled
// model: a master of the model's classifier width with no peers, served under
// RoleWorker.
func NewWorkerModel(model Model, id int) *Node {
	if model.Snapshot == nil {
		panic("cluster: worker needs an expert snapshot")
	}
	m := NewMaster(nil, model.Snapshot.BoundaryWidth(model.Snapshot.Steps()))
	m.local.Store(&model)
	return NewNode(RoleWorker, m, id)
}

// Swap replaces the served model: in-flight requests finish on the model
// they loaded, later ones see next. A next without a snapshot re-labels the
// weights being served; new weights of another input or classifier width are
// refused (see Master.SetLocal).
func (n *Node) Swap(next Model) error { return n.master.SetLocal(next) }

// Model returns the served model (never nil; its Snapshot is nil on a pure
// coordinator).
func (n *Node) Model() *Model { return n.master.Local() }

// Member returns this node's membership descriptor (valid after Listen).
func (n *Node) Member() Member {
	n.mu.Lock()
	addr := n.addr
	n.mu.Unlock()
	return Member{Role: n.role, Addr: addr, ID: n.id, Version: n.Model().Version}
}

// Roster exposes the node's membership view.
func (n *Node) Roster() *Roster { return n.roster }

// Metrics exposes the node's registry, which is its master's: next to the
// master's own series, the serving counters per request kind ("requests",
// "requests.split", "requests.expired", "panics.recovered", and the same
// under "fabric." for fabric requests) and the expert's compute-time
// histograms "predict" and "split.predict".
func (n *Node) Metrics() *metrics.Registry { return n.master.metrics }

// SetTracer installs (or, with nil, removes) the span collector of the node
// and its master. Requests carrying a trace parent then record their
// "worker.predict" spans under the sender's trace id.
func (n *Node) SetTracer(tr *trace.Tracer) { n.master.SetTracer(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (n *Node) Tracer() *trace.Tracer { return n.master.Tracer() }

// errNoExpert answers an expert request kind on a pure coordinator.
var errNoExpert = errors.New("cluster: node has no local expert")

// inputs holds the tensors the two expert kinds decode their input into. One
// leaves the pool per request and returns once the forward pass that read it
// has returned: the snapshot copies its result out, so no reply aliases it.
var inputs = sync.Pool{New: func() any { return new(tensor.Tensor) }}

// releaseInput returns x to inputs unless it grew past what the server loop
// pools (transport.MaxPooledScratch).
func releaseInput(x *tensor.Tensor) {
	if cap(x.Data)*8 <= transport.MaxPooledScratch {
		inputs.Put(x)
	}
}

// servePredict answers one pipelined whole-query request. A decode error
// costs one MsgErrorMux, never the connection — the frame boundary is
// intact and other requests are pipelined behind it.
func (n *Node) servePredict(ctx context.Context, model *Model, body []byte) (byte, []byte, time.Duration) {
	if model.Snapshot == nil {
		return errorReply(errNoExpert)
	}
	in := inputs.Get().(*tensor.Tensor)
	defer releaseInput(in)
	x, _, err := transport.DecodeTensor(body, in)
	if err != nil {
		return errorReply(err)
	}
	res, compute, err := n.timeExpert(ctx, "predict", "worker.predict", func() (PredictResult, error) {
		return n.predict(model.Snapshot, x)
	})
	if err != nil {
		return errorReply(err)
	}
	return MsgResultMux, EncodeResult(res), compute
}

// predict runs the expert snapshot on x (step 3 of Fig 1d) and pairs
// every row with its predictive entropy. A panic inside the snapshot
// (shape mismatch from a hostile or corrupted tensor) is recovered into an
// error so the node keeps serving.
func (n *Node) predict(snap *nn.Snapshot, x *tensor.Tensor) (res PredictResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			n.master.metrics.Counter("panics.recovered").Inc()
			err = fmt.Errorf("cluster: predict panic: %v", r)
		}
	}()
	probs, ent := snap.PredictWithEntropy(x)
	return PredictResult{Probs: probs, Entropy: ent.Data}, nil
}

// serveFabric answers one pipelined fabric request with the master's
// combined answer. Failures are per-request MsgErrorMux frames; the
// connection and the pipeline survive. ctx is the request's own: the
// gateway's remaining deadline bounds the gather, and the gateway's span
// parents the master's "infer" tree.
func (n *Node) serveFabric(ctx context.Context, _ *Model, body []byte) (byte, []byte, time.Duration) {
	req, err := decodeFabricRequest(body)
	if err != nil {
		return errorReply(err)
	}
	rep, err := n.master.Do(ctx, req)
	if err != nil {
		return errorReply(err)
	}
	return MsgFabricResult, encodeFabricResult(rep), 0
}

// timeExpert runs one forward pass — whole or tail — the way every node
// accounts for it: its duration into the hist histogram, a span under the
// request's trace parent when it has one, and the duration back for the
// reply header.
func (n *Node) timeExpert(ctx context.Context, hist, span string, run func() (PredictResult, error)) (PredictResult, time.Duration, error) {
	start := time.Now()
	res, err := run()
	compute := time.Since(start)
	n.master.metrics.Observe(hist, compute)
	if parent := trace.FromContext(ctx); parent.Valid() {
		status := ""
		if err != nil {
			status = trace.StatusError
		}
		n.master.Tracer().Record(parent, span, "", status, start, compute)
	}
	return res, compute, err
}
