package cluster

import (
	"context"
	"errors"
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
// coordinator; every mix in between answers the one inference kind, MsgDo, by
// handing the Request to its master's Do: {Own, SplitOff} runs this node's
// expert, {Own, SplitAt(k)} a partial-offload tail on it, and an ensemble
// policy the master's combined answer — for a node without peers, its own
// expert's with Live = Total = 1. A request the node has nothing to answer
// with (an Own one on a pure coordinator) costs the caller one MsgErrorMux.
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
	kinds map[byte]handler

	mu     sync.Mutex
	ln     net.Listener
	addr   string // bound listen address, set by Listen
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// handler serves one request frame type. The header has been
// parsed and honoured by the time it runs: ctx carries the request's
// remaining budget as its deadline and the request's trace parent as its
// ambient span, so a handler that sends requests of its own passes on what
// it received; model is the served model the request's version pin was
// checked against, the one a handler that runs the node's own expert must
// run. body is the payload after the header. A handler returns the reply
// frame type and body — an error is just a MsgErrorMux reply — and the time
// its forward pass took (0 if none ran), which goes back in the reply
// header. Handlers run concurrently.
type handler func(n *Node, ctx context.Context, model *Model, body []byte) (replyType byte, reply []byte, compute time.Duration)

// requestKinds is the request table of every node: every exchange a process
// starts with a node is one of these kinds.
var requestKinds = map[byte]handler{
	MsgDo:        (*Node).serveDo,
	MsgPing:      (*Node).servePing,
	MsgElection:  (*Node).serveElection,
	MsgAnnounce:  (*Node).serveAnnounce,
	MsgModelPush: (*Node).servePush,
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
// master's own series, the serving counters "requests" (MsgDo served),
// "requests.expired" (budget ran out unserved) and "panics.recovered", and
// the histogram "predict" of the node's own forward passes, whole or tail.
func (n *Node) Metrics() *metrics.Registry { return n.master.metrics }

// SetTracer installs (or, with nil, removes) the span collector of the node
// and its master. Requests carrying a trace parent then record their
// "worker.predict" spans under the sender's trace id.
func (n *Node) SetTracer(tr *trace.Tracer) { n.master.SetTracer(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (n *Node) Tracer() *trace.Tracer { return n.master.Tracer() }

// errNoExpert answers an Own request on a pure coordinator.
var errNoExpert = errors.New("cluster: node has no local expert")

// inputs holds the tensors Own requests decode their input into. One leaves
// the pool per request and returns once the forward pass that read it has
// returned: the snapshot copies its result out, so no reply aliases it.
var inputs = sync.Pool{New: func() any { return new(tensor.Tensor) }}

// releaseInput returns x to inputs unless it grew past what the server loop
// pools (transport.MaxPooledScratch).
func releaseInput(x *tensor.Tensor) {
	if cap(x.Data)*8 <= transport.MaxPooledScratch {
		inputs.Put(x)
	}
}

// serveDo answers one MsgDo: it decodes the Request, answers it with the
// master's Do on the model the header's version pin was checked against,
// and encodes the Reply. A decode error or a refused request costs one
// MsgErrorMux, never the connection — the frame boundary is intact and other
// requests are pipelined behind it. An Own request's input is decoded into a
// pooled tensor, released once Do, and with it the forward pass that read
// it, has returned; the reply header carries how long that took. It is the
// one handler counted in "requests".
func (n *Node) serveDo(ctx context.Context, model *Model, body []byte) (byte, []byte, time.Duration) {
	n.master.metrics.Counter("requests").Inc()
	in := inputs.Get().(*tensor.Tensor)
	defer releaseInput(in)
	req, err := decodeRequest(body, in)
	if err != nil {
		return errorReply(err)
	}
	start := time.Now()
	rep, err := n.master.do(ctx, model, req)
	if err != nil {
		return errorReply(err)
	}
	var compute time.Duration
	if req.Policy.Gather == Own {
		compute = time.Since(start)
	}
	return MsgReply, encodeReply(rep, req.Policy.wide()), compute
}

// servePing answers a liveness probe with an empty reply.
func (n *Node) servePing(context.Context, *Model, []byte) (byte, []byte, time.Duration) {
	return MsgReply, nil, 0
}
