package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// Worker serves one TeamNet expert over raw TCP: the edge-node role of
// Figure 1(d). It answers pipelined MsgPredictMux frames with MsgResultMux
// frames carrying probabilities and predictive entropies — running them
// concurrently on the expert's frozen inference snapshot, replies out of
// order — finishes MsgSplitPredict tails the same way, and answers the
// control frames of the shared server loop (server.go).
//
// Every result carries the measured expert compute time in its reply
// header (header.go), so the master can split its observed round trip into
// network and compute; requests whose header carries a trace parent
// additionally record a "worker.predict" span — under the propagated trace
// id — into the worker's own tracer.
type Worker struct {
	// snap is the frozen expert, safe for concurrent inference. An atomic
	// pointer so a versioned model push (MsgModelPush) can hot-swap it
	// while requests are in flight: each predict loads the pointer once.
	snap    atomic.Pointer[nn.Snapshot]
	id      int // election identity; higher wins
	metrics *metrics.Registry
	tracer  *tracerRef
	srv     *frameServer
	mu      sync.Mutex // guards version
	version string     // model version label, set by SetModelVersion / pushes
}

// NewWorker compiles an expert network into a frozen inference snapshot
// and wraps it for serving; any number of requests then run concurrently
// on the snapshot (bounded per connection by handlerWindow). id is the
// node's election identity (any distinct non-negative int; higher ids win
// elections). It panics on a nil or uncompilable expert (programmer error
// at construction).
func NewWorker(expert *nn.Network, id int) *Worker {
	return NewWorkerSnapshot(nn.MustSnapshot(expert), id)
}

// NewWorkerSnapshot wraps an already-compiled snapshot for serving, for
// callers that share one snapshot between serving and other consumers.
func NewWorkerSnapshot(snap *nn.Snapshot, id int) *Worker {
	if snap == nil {
		panic("cluster: worker needs an expert snapshot")
	}
	w := &Worker{
		id:      id,
		metrics: new(metrics.Registry),
		tracer:  &tracerRef{},
	}
	w.snap.Store(snap)
	w.srv = &frameServer{
		member:      w.Member,
		roster:      NewRoster(),
		applyPush:   w.applyModelPush,
		metrics:     w.metrics,
		panicName:   "panics.recovered",
		expiredName: "requests.expired",
		kinds: map[byte]handler{
			MsgPredictMux:   w.serveMuxPredict,
			MsgSplitPredict: w.serveSplitPredict,
		},
	}
	return w
}

// SwapSnapshot hot-swaps the serving expert: in-flight predicts finish on
// the snapshot they loaded, later requests run on the new one. version
// labels the new model (reported in announce exchanges). This is what a
// MsgModelPush applies; it is also exported for co-located swaps (e.g. a
// -swap-watch reload in teamnet-node).
func (w *Worker) SwapSnapshot(snap *nn.Snapshot, version string) {
	if snap == nil {
		panic("cluster: worker needs an expert snapshot")
	}
	w.snap.Store(snap)
	w.mu.Lock()
	w.version = version
	w.mu.Unlock()
	w.metrics.Counter("model.swaps").Inc()
}

// SetModelVersion labels the currently served model without swapping
// weights (the startup label, derived from the bundle hash in teamnet-node).
func (w *Worker) SetModelVersion(version string) {
	w.mu.Lock()
	w.version = version
	w.mu.Unlock()
}

// ModelVersion returns the served model's version label.
func (w *Worker) ModelVersion() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.version
}

// Member returns this worker's membership descriptor (valid after Listen).
func (w *Worker) Member() Member {
	return Member{Role: RoleWorker, Addr: w.srv.boundAddr(), ID: w.id, Version: w.ModelVersion()}
}

// Roster exposes the worker's membership view.
func (w *Worker) Roster() *Roster { return w.srv.roster }

// Metrics exposes the worker's registry: the serving counters ("requests",
// "requests.expired", "panics.recovered", ...) and the latency histograms
// ("predict" — expert compute time per served request).
func (w *Worker) Metrics() *metrics.Registry { return w.metrics }

// SetTracer installs (or, with nil, removes) the worker's span collector.
// Requests carrying a trace parent then record "worker.predict" spans
// correlated with the master's trace ids.
func (w *Worker) SetTracer(tr *trace.Tracer) { w.tracer.set(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (w *Worker) Tracer() *trace.Tracer { return w.tracer.get() }

// Listen binds to addr (use "127.0.0.1:0" for tests) and serves in the
// background. It returns the bound address.
func (w *Worker) Listen(addr string) (string, error) {
	bound, err := w.srv.listen(addr)
	if err != nil {
		return "", fmt.Errorf("cluster: worker listen %s: %w", addr, err)
	}
	return bound, nil
}

// serveMuxPredict answers one pipelined whole-query request. A decode error
// costs one MsgErrorMux, never the connection — the frame boundary is
// intact and other requests are pipelined behind it.
func (w *Worker) serveMuxPredict(ctx context.Context, body []byte) (byte, []byte, time.Duration) {
	w.metrics.Counter("requests").Inc()
	x, _, err := transport.DecodeTensor(body)
	if err != nil {
		return errorReply(err)
	}
	res, compute, err := timeExpert(ctx, w.tracer, w.metrics, "predict", "worker.predict", func() (PredictResult, error) {
		return w.predict(x)
	})
	if err != nil {
		return errorReply(err)
	}
	return MsgResultMux, EncodeResult(res), compute
}

// serveSplitPredict finishes one partial-offload tail on the served
// snapshot; split tails share the connection's handler window and write
// lock with query traffic.
func (w *Worker) serveSplitPredict(ctx context.Context, body []byte) (byte, []byte, time.Duration) {
	w.metrics.Counter("requests").Inc()
	w.metrics.Counter("requests.split").Inc()
	return serveSplit(ctx, w.snap.Load(), body, w.tracer, w.metrics)
}

// predict runs the expert snapshot on x (step 3 of Fig 1d) and pairs
// every row with its predictive entropy. A panic inside the snapshot
// (shape mismatch from a hostile or corrupted tensor) is recovered into an
// error so the node keeps serving.
func (w *Worker) predict(x *tensor.Tensor) (res PredictResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.metrics.Counter("panics.recovered").Inc()
			err = fmt.Errorf("cluster: predict panic: %v", r)
		}
	}()
	probs, ent := w.snap.Load().PredictWithEntropy(x)
	return PredictResult{Probs: probs, Entropy: ent.Data}, nil
}

// applyModelPush applies one decoded MsgModelPush: swap the expert when the
// push carries weights, or just re-label on a version-only push.
func (w *Worker) applyModelPush(version string, snap *nn.Snapshot) {
	if snap != nil {
		w.SwapSnapshot(snap, version)
	} else {
		w.SetModelVersion(version)
	}
}

// ID returns the worker's election identity.
func (w *Worker) ID() int { return w.id }

// Close stops serving, closes open connections and waits for in-flight
// requests to return.
func (w *Worker) Close() error { return w.srv.close() }
