package cluster

import (
	"context"
	"fmt"
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
	// model is the served expert and its label, never nil. The server loop
	// loads it once per request and hands that value to the handler, so a
	// hot-swap (Swap, MsgModelPush) never splits a request across two models.
	model   atomic.Pointer[Model]
	id      int // election identity; higher wins
	metrics *metrics.Registry
	tracer  *tracerRef
	srv     *frameServer
}

// NewWorker compiles an expert network into a frozen inference snapshot
// and wraps it for serving; any number of requests then run concurrently
// on the snapshot (bounded per connection by handlerWindow). id is the
// node's election identity (any distinct non-negative int; higher ids win
// elections). It panics on a nil or uncompilable expert (programmer error
// at construction).
func NewWorker(expert *nn.Network, id int) *Worker {
	return NewWorkerModel(Model{Snapshot: nn.MustSnapshot(expert)}, id)
}

// NewWorkerModel serves an already-compiled, already-labelled model.
func NewWorkerModel(model Model, id int) *Worker {
	if model.Snapshot == nil {
		panic("cluster: worker needs an expert snapshot")
	}
	w := &Worker{
		id:      id,
		metrics: new(metrics.Registry),
		tracer:  &tracerRef{},
	}
	w.model.Store(&model)
	w.srv = &frameServer{
		member:      w.Member,
		roster:      NewRoster(),
		model:       w.Model,
		swap:        w.Swap,
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

// Swap replaces the served model: in-flight requests finish on the model
// they loaded, later ones see next. A next without a snapshot re-labels the
// weights being served; new weights of another input or classifier width are
// refused (see publish). This is what a MsgModelPush applies.
func (w *Worker) Swap(next Model) error { return publish(&w.model, next, 0, w.metrics) }

// Model returns the served model (never nil).
func (w *Worker) Model() *Model { return w.model.Load() }

// Member returns this worker's membership descriptor (valid after Listen).
func (w *Worker) Member() Member {
	return Member{Role: RoleWorker, Addr: w.srv.boundAddr(), ID: w.id, Version: w.Model().Version}
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
func (w *Worker) serveMuxPredict(ctx context.Context, model *Model, body []byte) (byte, []byte, time.Duration) {
	w.metrics.Counter("requests").Inc()
	x, _, err := transport.DecodeTensor(body)
	if err != nil {
		return errorReply(err)
	}
	res, compute, err := timeExpert(ctx, w.tracer, w.metrics, "predict", "worker.predict", func() (PredictResult, error) {
		return w.predict(model.Snapshot, x)
	})
	if err != nil {
		return errorReply(err)
	}
	return MsgResultMux, EncodeResult(res), compute
}

// serveSplitPredict finishes one partial-offload tail on the model its pin
// was checked against; split tails share the connection's handler window and
// write lock with query traffic.
func (w *Worker) serveSplitPredict(ctx context.Context, model *Model, body []byte) (byte, []byte, time.Duration) {
	w.metrics.Counter("requests").Inc()
	w.metrics.Counter("requests.split").Inc()
	return serveSplit(ctx, model, body, w.tracer, w.metrics)
}

// predict runs the expert snapshot on x (step 3 of Fig 1d) and pairs
// every row with its predictive entropy. A panic inside the snapshot
// (shape mismatch from a hostile or corrupted tensor) is recovered into an
// error so the node keeps serving.
func (w *Worker) predict(snap *nn.Snapshot, x *tensor.Tensor) (res PredictResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.metrics.Counter("panics.recovered").Inc()
			err = fmt.Errorf("cluster: predict panic: %v", r)
		}
	}()
	probs, ent := snap.PredictWithEntropy(x)
	return PredictResult{Probs: probs, Entropy: ent.Data}, nil
}

// Close stops serving, closes open connections and waits for in-flight
// requests to return.
func (w *Worker) Close() error { return w.srv.close() }
