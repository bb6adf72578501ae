package cluster

import (
	"bufio"
	"fmt"
	"net"
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
// Figure 1(d). It answers MsgPredict frames with MsgResult frames carrying
// probabilities and predictive entropies, answers pipelined MsgPredictMux
// frames concurrently — running them on the expert's frozen inference
// snapshot and writing replies out of order under a per-connection write
// lock — and responds to pings and election traffic.
//
// Every result carries the measured expert compute time as a trailing
// timing trailer (see tracewire.go), so the master can split its observed
// round trip into network and compute; requests that arrive with a trace
// trailer additionally record a "worker.predict" span — under the
// propagated master trace id — into the worker's own tracer.
type Worker struct {
	// snap is the frozen expert, safe for concurrent inference. An atomic
	// pointer so a versioned model push (MsgModelPush) can hot-swap it
	// while requests are in flight: each predict loads the pointer once.
	snap     atomic.Pointer[nn.Snapshot]
	id       int // election identity; higher wins
	counters *metrics.CounterSet
	hists    *metrics.HistogramSet
	tracer   *tracerRef
	roster   *Roster // fabric membership view, fed by announce exchanges
	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
	addr     string // bound listen address, set by Listen
	version  string // model version label, set by SetModelVersion / pushes
}

// NewWorker compiles an expert network into a frozen inference snapshot
// and wraps it for serving; any number of requests then run concurrently
// on the snapshot (bounded per connection by workerMuxWindow). id is the
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
		id:       id,
		conns:    make(map[net.Conn]struct{}),
		counters: metrics.NewCounterSet(),
		hists:    metrics.NewHistogramSet(),
		tracer:   &tracerRef{},
		roster:   NewRoster(),
	}
	w.snap.Store(snap)
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
	w.counters.Counter("model.swaps").Inc()
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
	w.mu.Lock()
	defer w.mu.Unlock()
	return Member{Role: RoleWorker, Addr: w.addr, ID: w.id, Version: w.version}
}

// Roster exposes the worker's membership view.
func (w *Worker) Roster() *Roster { return w.roster }

// Counters exposes the worker's serving counters ("requests",
// "panics.recovered", ...).
func (w *Worker) Counters() *metrics.CounterSet { return w.counters }

// Histograms exposes the worker's latency histograms ("predict" — expert
// compute time per served request).
func (w *Worker) Histograms() *metrics.HistogramSet { return w.hists }

// SetTracer installs (or, with nil, removes) the worker's span collector.
// Requests carrying a trace trailer then record "worker.predict" spans
// correlated with the master's trace ids.
func (w *Worker) SetTracer(tr *trace.Tracer) { w.tracer.set(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (w *Worker) Tracer() *trace.Tracer { return w.tracer.get() }

// Listen binds to addr (use "127.0.0.1:0" for tests) and serves in the
// background. It returns the bound address.
func (w *Worker) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: worker listen %s: %w", addr, err)
	}
	w.mu.Lock()
	w.ln = ln
	w.addr = ln.Addr().String()
	w.mu.Unlock()
	w.wg.Add(1)
	go w.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (w *Worker) acceptLoop(ln net.Listener) {
	defer w.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go w.handleConn(conn)
	}
}

// handleConn is the per-connection serving goroutine. The recover is the
// worker's last line of defense: serveConn promises that a malformed
// request costs one error frame, but a panic escaping the predict recover
// (decode, trace or encode paths) must cost only this connection — never
// the serving process.
func (w *Worker) handleConn(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	defer func() {
		if r := recover(); r != nil {
			w.counters.Counter("panics.recovered").Inc()
		}
	}()
	w.serveConn(conn)
}

// workerMuxWindow bounds the mux requests one connection may have in
// flight on the worker: the read loop blocks past it, so a flooding client
// gets TCP backpressure instead of unbounded handler goroutines. The
// snapshot itself has no concurrency limit — this window is the worker's
// only compute-parallelism bound.
const workerMuxWindow = 64

// connWriter serializes frame writes on one connection: the serial read
// loop and the concurrent mux handlers interleave whole frames, never
// bytes, and every frame leaves in one write.
type connWriter struct {
	mu    sync.Mutex
	conn  net.Conn
	batch transport.FrameBatch
}

func (cw *connWriter) write(typ byte, payload []byte) error {
	return cw.send(typ, nil, payload)
}

// writeMux sends a mux reply: the request id, then payload (not copied).
func (cw *connWriter) writeMux(typ byte, id uint32, payload []byte) error {
	idb := muxIDPrefix(id)
	return cw.send(typ, idb[:], payload)
}

func (cw *connWriter) send(typ byte, prefix, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := cw.batch.Add(typ, prefix, payload); err != nil {
		return err
	}
	return cw.batch.Flush(cw.conn)
}

func (w *Worker) serveConn(conn net.Conn) {
	cw := &connWriter{conn: conn}
	sem := make(chan struct{}, workerMuxWindow)
	br := bufio.NewReaderSize(conn, connReadBuffer)
	for {
		typ, payload, err := transport.ReadFrame(br)
		if err != nil {
			return
		}
		switch typ {
		case MsgPredict:
			w.counters.Counter("requests").Inc()
			result, errText, decodeFailed := w.runPredict(payload)
			if decodeFailed {
				_ = cw.write(MsgError, []byte(errText))
				return
			}
			if errText != "" {
				// A malformed tensor that panics inside the NN must cost
				// one MsgError, never the serving goroutine: answer and
				// keep the connection alive for the next request.
				if err := cw.write(MsgError, []byte(errText)); err != nil {
					return
				}
				continue
			}
			if err := cw.write(MsgResult, result); err != nil {
				return
			}
		case MsgPredictMux:
			w.counters.Counter("requests").Inc()
			w.counters.Counter("requests.mux").Inc()
			id, body, err := splitMuxID(payload)
			if err != nil {
				// No request id to address a mux error to: the stream is
				// unusable, answer serially and drop the connection.
				_ = cw.write(MsgError, []byte(err.Error()))
				return
			}
			// Dispatch concurrently onto the expert snapshot; the semaphore
			// bounds handlers per connection, replies write out of order
			// under the connection's write lock.
			sem <- struct{}{}
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				defer func() { <-sem }()
				defer func() {
					if r := recover(); r != nil {
						w.counters.Counter("panics.recovered").Inc()
						conn.Close() // a panicking handler poisons only this connection
					}
				}()
				w.serveMuxPredict(cw, id, body)
			}()
		case MsgSplitPredict:
			w.counters.Counter("requests").Inc()
			w.counters.Counter("requests.split").Inc()
			id, body, err := splitMuxID(payload)
			if err != nil {
				_ = cw.write(MsgError, []byte(err.Error()))
				return
			}
			// Same dispatch discipline as MsgPredictMux: split tails share the
			// connection's handler window and write lock with query traffic.
			sem <- struct{}{}
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				defer func() { <-sem }()
				defer func() {
					if r := recover(); r != nil {
						w.counters.Counter("panics.recovered").Inc()
						conn.Close()
					}
				}()
				result, errText := runSplitBody(w.snap.Load(), w.ModelVersion(), body, w.tracer, w.hists)
				if errText != "" {
					_ = cw.writeMux(MsgErrorMux, id, []byte(errText))
					return
				}
				_ = cw.writeMux(MsgSplitResult, id, result)
			}()
		case MsgPing:
			if err := cw.write(MsgPong, nil); err != nil {
				return
			}
		case MsgElection:
			// Bully: any node hearing an election from a lower id answers
			// OK (it will run its own election).
			if err := cw.write(MsgElectionOK, electionReply(w.id)); err != nil {
				return
			}
		case MsgAnnounce:
			reply, aerr := handleAnnounce(w.roster, w.Member(), payload)
			if aerr != nil {
				_ = cw.write(MsgError, []byte(aerr.Error()))
				return
			}
			if err := cw.write(MsgAnnounceOK, reply); err != nil {
				return
			}
		case MsgModelPush:
			version, perr := w.applyModelPush(payload)
			if perr != nil {
				// A bad push costs one error frame, not the connection:
				// the frame boundary is intact.
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

// serveMuxPredict answers one pipelined request with the matching
// MsgResultMux / MsgErrorMux frame. Unlike the serial path, a decode error
// never drops the connection — the frame boundary is intact and other
// requests are pipelined behind it.
func (w *Worker) serveMuxPredict(cw *connWriter, id uint32, body []byte) {
	result, errText, _ := w.runPredict(body)
	if errText != "" {
		_ = cw.writeMux(MsgErrorMux, id, []byte(errText))
		return
	}
	_ = cw.writeMux(MsgResultMux, id, result)
}

// runPredict decodes one predict body (tensor plus optional trace
// trailer), runs the expert snapshot on it, and returns the encoded
// result payload — or an error message, with decodeFailed distinguishing
// an undecodable body from a failed prediction.
func (w *Worker) runPredict(body []byte) (result []byte, errText string, decodeFailed bool) {
	x, used, err := transport.DecodeTensor(body)
	if err != nil {
		return nil, err.Error(), true
	}
	// Trace context rides as a trailer after the tensor; absent on
	// untraced masters and pre-trace builds.
	ctx := extractTraceContext(body[used:])
	start := time.Now()
	res, perr := w.predict(x)
	compute := time.Since(start)
	w.hists.Observe("predict", compute)
	if ctx.Valid() {
		status := ""
		if perr != nil {
			status = trace.StatusError
		}
		w.tracer.get().Record(ctx, "worker.predict", "", status, start, compute)
	}
	if perr != nil {
		return nil, perr.Error(), false
	}
	// The compute-time trailer is always appended — old masters ignore it,
	// new ones use it for the network/compute split.
	return appendComputeTime(EncodeResult(res), compute), "", false
}

// predict runs the expert snapshot on x (step 3 of Fig 1d) and pairs
// every row with its predictive entropy. A panic inside the snapshot
// (shape mismatch from a hostile or corrupted tensor) is recovered into an
// error so the node keeps serving.
func (w *Worker) predict(x *tensor.Tensor) (res PredictResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.counters.Counter("panics.recovered").Inc()
			err = fmt.Errorf("cluster: predict panic: %v", r)
		}
	}()
	probs, ent := w.snap.Load().PredictWithEntropy(x)
	return PredictResult{Probs: probs, Entropy: ent.Data}, nil
}

// applyModelPush decodes and applies one MsgModelPush: swap the expert when
// the push carries weights, or just re-label on a version-only push. The
// swap happens before the ack is written, so a successful PushModel means
// the worker is already serving the new version.
func (w *Worker) applyModelPush(payload []byte) (version string, err error) {
	version, snap, err := DecodeModelPush(payload)
	if err != nil {
		return "", err
	}
	if snap != nil {
		w.SwapSnapshot(snap, version)
	} else {
		w.SetModelVersion(version)
	}
	return version, nil
}

// ID returns the worker's election identity.
func (w *Worker) ID() int { return w.id }

// Close stops serving and closes open connections.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	ln := w.ln
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	w.wg.Wait()
	return err
}
