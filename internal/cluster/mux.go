package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// Multiplexed peer transport: the concurrent-inference half of the cluster
// runtime. The paper's protocol is strictly one-in-flight per peer link —
// fine for a single sensing loop, fatal for multi-user traffic, where every
// concurrent Master.Infer serializes behind the previous one no matter how
// much parallel capacity the worker's snapshot has. A muxClient pipelines
// instead:
//
//	waiters ──▶ window (bounded in-flight) ──▶ writer goroutine ──▶ TCP
//	waiters ◀── pending map (by request id) ◀── reader goroutine ◀── TCP
//
// Every request is tagged with a uint32 id (MsgPredictMux), the worker
// runs them concurrently against its frozen snapshot and replies out of order
// (MsgResultMux / MsgErrorMux), and the single reader matches replies back
// to waiters. One TCP connection per peer carries the whole pipeline.
//
// Failure semantics integrate with the supervisor state machine: a link
// failure (read/write error, per-request timeout) tears the client down,
// fails every pending request with the same error, and feeds the breaker
// exactly once — not once per waiter. A peer that answers the first mux
// frame with a serial MsgError — or closes a freshly dialed link before any
// reply — is a pre-mux build; the peerConn sticky-downgrades it to the
// serial protocol so mixed-version fleets interoperate (DESIGN.md §8). A
// silent close on an ADOPTED connection is not trusted as a downgrade
// signal: the socket may be stale (worker restarted since Connect), so it
// counts as a link fault and the retry probes again on a fresh dial.

// muxWindow bounds the in-flight requests one mux link may carry. Beyond
// it, waiters queue (reported by the mux.queue_depth gauge) — backpressure
// beats unbounded buffering on an edge link.
const muxWindow = 32

// errMuxUnsupported marks a peer that answered the mux probe with the
// serial protocol's error frame (or hung up a freshly dialed link before
// any mux reply): a pre-mux build. The peerConn downgrades to serial and
// retries; the breaker is NOT fed — the peer is alive, just older.
var errMuxUnsupported = errors.New("cluster: peer does not speak the mux protocol")

// muxReply is one matched response delivered to a waiter.
type muxReply struct {
	typ     byte
	payload []byte // mux payload with the id prefix already stripped
	err     error
}

// muxClient pipelines requests onto one connection: single writer
// goroutine, single reader goroutine, pending-request map, bounded
// in-flight window.
type muxClient struct {
	conn     net.Conn
	fresh    bool // conn was dialed for this client, not adopted
	reqType  byte // frame type of outgoing requests (MsgPredictMux on peer links)
	resType  byte // frame type of matched replies (MsgResultMux on peer links)
	writeCh  chan muxWrite
	window   chan struct{} // in-flight slots
	inflight *metrics.Gauge
	queued   *metrics.Gauge
	onDown   func(error) // supervision hook; called exactly once
	downOnce sync.Once

	mu          sync.Mutex
	pending     map[uint32]chan muxReply
	nextID      uint32
	established bool // a mux reply has been seen on this link
	down        bool
	downErr     error
	downCh      chan struct{} // closed when the link dies
}

type muxWrite struct {
	typ     byte
	id      uint32
	payload []byte
}

// newMuxClient takes ownership of conn and starts the writer and reader.
// fresh records whether conn was dialed for this client: only a fresh link
// that closes before any reply is a trustworthy pre-mux-build signal — an
// adopted connection may simply be stale (worker restarted since Connect).
func newMuxClient(conn net.Conn, fresh bool, inflight, queued *metrics.Gauge, onDown func(error)) *muxClient {
	return newMuxClientTyped(conn, fresh, MsgPredictMux, MsgResultMux, inflight, queued, onDown)
}

// newMuxClientTyped is newMuxClient with the request/reply frame types made
// explicit, so the same pipeline drives both the master→worker peer link
// (MsgPredictMux/MsgResultMux) and the gateway→master fabric link
// (MsgFabricPredict/MsgFabricResult). Error replies are MsgErrorMux on both.
func newMuxClientTyped(conn net.Conn, fresh bool, reqType, resType byte, inflight, queued *metrics.Gauge, onDown func(error)) *muxClient {
	mc := &muxClient{
		conn:     conn,
		fresh:    fresh,
		reqType:  reqType,
		resType:  resType,
		writeCh:  make(chan muxWrite),
		window:   make(chan struct{}, muxWindow),
		inflight: inflight,
		queued:   queued,
		onDown:   onDown,
		pending:  make(map[uint32]chan muxReply),
		downCh:   make(chan struct{}),
	}
	go mc.writeLoop()
	go mc.readLoop()
	return mc
}

// alive reports whether the link can still accept requests.
func (mc *muxClient) alive() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return !mc.down
}

// fail tears the link down once: close the connection (unblocking both
// loops), deliver err to every pending waiter, and run the supervision
// hook. Concurrent callers collapse into the first.
func (mc *muxClient) fail(err error) {
	mc.downOnce.Do(func() {
		mc.mu.Lock()
		mc.down = true
		mc.downErr = err
		pending := mc.pending
		mc.pending = make(map[uint32]chan muxReply)
		close(mc.downCh)
		mc.mu.Unlock()
		mc.conn.Close()
		for _, ch := range pending {
			ch <- muxReply{err: err}
		}
		if mc.onDown != nil {
			mc.onDown(err)
		}
	})
}

// close shuts the link down without feeding the supervisor — master
// shutdown, not a failure.
func (mc *muxClient) close() {
	mc.downOnce.Do(func() {
		mc.mu.Lock()
		mc.down = true
		mc.downErr = errors.New("cluster: mux client closed")
		pending := mc.pending
		mc.pending = make(map[uint32]chan muxReply)
		close(mc.downCh)
		mc.mu.Unlock()
		mc.conn.Close()
		for _, ch := range pending {
			ch <- muxReply{err: mc.downErr}
		}
	})
}

// writeLoop is the single writer: it owns the connection's write side.
func (mc *muxClient) writeLoop() {
	var batch transport.FrameBatch
	for {
		select {
		case w := <-mc.writeCh:
			if err := mc.writeBurst(&batch, w); err != nil {
				mc.fail(fmt.Errorf("cluster: mux write: %w", err))
				return
			}
		case <-mc.downCh:
			return
		}
	}
}

// writeBurst sends w together with whatever other requests are already
// blocked on writeCh (at most muxWindow senders exist), so a burst costs one
// syscall and, on a link that delays every delivery, one delay. The request
// id rides next to the frame header; the payload is not copied.
func (mc *muxClient) writeBurst(batch *transport.FrameBatch, w muxWrite) error {
	for {
		id := muxIDPrefix(w.id)
		if err := batch.Add(w.typ, id[:], w.payload); err != nil {
			return err
		}
		select {
		case w = <-mc.writeCh:
		default:
			return batch.Flush(mc.conn)
		}
	}
}

// readLoop is the single reader: it matches replies to pending waiters.
// A serial-protocol frame before the first mux reply means the peer is a
// pre-mux build → downgrade; afterwards it is link corruption → failure.
func (mc *muxClient) readLoop() {
	br := bufio.NewReaderSize(mc.conn, connReadBuffer)
	for {
		typ, payload, err := transport.ReadFrame(br)
		if err != nil {
			if !mc.sawReply() && mc.fresh {
				// A freshly dialed peer hung up on our first mux frame
				// without ever answering: a pre-mux build closing on an
				// unknown frame type.
				mc.fail(errMuxUnsupported)
			} else {
				// Established pipeline died — or an ADOPTED connection (the
				// eager dial from Connect) dropped before any reply. The
				// latter is ambiguous: the socket may just be stale because
				// the worker restarted since Connect. Either way it is a
				// link fault; the retry redials fresh, and a genuine pre-mux
				// build will answer that probe with a serial MsgError.
				mc.fail(fmt.Errorf("cluster: mux read: %w", err))
			}
			return
		}
		switch typ {
		case mc.resType, MsgSplitResult, MsgErrorMux:
			id, rest, perr := splitMuxID(payload)
			if perr != nil {
				mc.fail(perr)
				return
			}
			mc.deliver(id, muxReply{typ: typ, payload: rest})
		case MsgError:
			if !mc.sawReply() {
				mc.fail(errMuxUnsupported)
				return
			}
			mc.fail(fmt.Errorf("cluster: serial error frame on mux link: %s", payload))
			return
		default:
			mc.fail(fmt.Errorf("cluster: unexpected frame type %d on mux link", typ))
			return
		}
	}
}

// sawReply reports whether any mux reply has arrived on this link.
func (mc *muxClient) sawReply() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.established
}

// deliver hands one matched reply to its waiter; replies to ids nobody
// waits for (a request that timed out) are dropped on the floor.
func (mc *muxClient) deliver(id uint32, r muxReply) {
	mc.mu.Lock()
	mc.established = true
	ch, ok := mc.pending[id]
	delete(mc.pending, id)
	mc.mu.Unlock()
	if ok {
		ch <- r
	}
}

// register allocates a request id and its reply channel.
func (mc *muxClient) register() (uint32, chan muxReply, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.down {
		return 0, nil, mc.downErr
	}
	mc.nextID++
	id := mc.nextID
	ch := make(chan muxReply, 1)
	mc.pending[id] = ch
	return id, ch, nil
}

// unregister abandons a request (timeout, shutdown); its late reply, if it
// ever arrives, is dropped.
func (mc *muxClient) unregister(id uint32) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}

// roundTrip pipelines one request: acquire a window slot, send, await the
// matched reply within timeout. done aborts the waits — it merges master
// shutdown with the caller's ctx cancellation (joinDone); abortErr(ctx)
// names which one fired. A caller abort abandons only this request (the
// late reply is dropped, the link stays up), whereas a timeout is a link
// failure — with requests pipelined behind each other a stalled link wedges
// them all, so it is torn down (and the breaker fed once) like any other
// link fault, mirroring the serial path's conn drop.
func (mc *muxClient) roundTrip(ctx context.Context, payload []byte, timeout time.Duration, done <-chan struct{}) (muxReply, time.Duration, error) {
	return mc.roundTripTyped(ctx, mc.reqType, payload, timeout, done)
}

// roundTripTyped is roundTrip with an explicit request frame type, so
// secondary request kinds (MsgSplitPredict) share a link's pipeline, window
// and failure semantics with its primary traffic instead of opening a
// second connection per peer.
func (mc *muxClient) roundTripTyped(ctx context.Context, reqType byte, payload []byte, timeout time.Duration, done <-chan struct{}) (muxReply, time.Duration, error) {
	var timer *time.Timer
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		timeoutCh = timer.C
		defer timer.Stop()
	}

	// Window slot: bounded in-flight, queueing reported by the gauge.
	mc.queued.Inc()
	select {
	case mc.window <- struct{}{}:
		mc.queued.Dec()
	case <-mc.downCh:
		mc.queued.Dec()
		return muxReply{}, 0, mc.downError()
	case <-timeoutCh:
		mc.queued.Dec()
		err := fmt.Errorf("cluster: mux window wait exceeded %v", timeout)
		mc.fail(err)
		return muxReply{}, 0, err
	case <-done:
		mc.queued.Dec()
		return muxReply{}, 0, abortErr(ctx)
	}
	mc.inflight.Inc()
	defer func() {
		mc.inflight.Dec()
		<-mc.window
	}()

	id, ch, err := mc.register()
	if err != nil {
		return muxReply{}, 0, err
	}
	start := time.Now()
	select {
	case mc.writeCh <- muxWrite{typ: reqType, id: id, payload: payload}:
	case <-mc.downCh:
		mc.unregister(id)
		return muxReply{}, 0, mc.downError()
	case <-done:
		mc.unregister(id)
		return muxReply{}, 0, abortErr(ctx)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return muxReply{}, time.Since(start), r.err
		}
		return r, time.Since(start), nil
	case <-timeoutCh:
		mc.unregister(id)
		err := fmt.Errorf("cluster: mux request %d exceeded %v", id, timeout)
		mc.fail(err)
		return muxReply{}, time.Since(start), err
	case <-done:
		mc.unregister(id)
		return muxReply{}, time.Since(start), abortErr(ctx)
	}
}

// downError returns the error the link died with.
func (mc *muxClient) downError() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.downErr != nil {
		return mc.downErr
	}
	return errors.New("cluster: mux link down")
}

// --- peerConn integration -------------------------------------------------

// muxOutcome classifies one mux attempt for the supervisor's accounting.
type muxOutcome int

const (
	muxOK          muxOutcome = iota
	muxWorkerErr              // live peer answered with an error: no retry, no breaker
	muxLinkFault              // link died; the breaker was already fed once by muxLinkDown
	muxDialFault              // dial failed before a client existed; caller feeds the breaker
	muxCallerAbort            // the caller's ctx expired/cancelled: no retry, no breaker
)

// muxEligible reports whether this peer is still on the mux protocol:
// neither sticky-downgraded (pre-mux peer) nor disabled via SetMux.
func (p *peerConn) muxEligible() bool {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	return !p.serialOnly && !p.muxOff
}

// markSerialOnly sticky-downgrades the peer to the serial protocol.
func (p *peerConn) markSerialOnly() {
	p.counter("mux_downgrades").Inc()
	p.stateMu.Lock()
	p.serialOnly = true
	p.stateMu.Unlock()
}

// markMuxProven records that the peer has answered on the mux protocol —
// from then on an early close is a link fault, never a downgrade signal.
func (p *peerConn) markMuxProven() {
	p.stateMu.Lock()
	p.muxProven = true
	p.stateMu.Unlock()
}

func (p *peerConn) isMuxProven() bool {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	return p.muxProven
}

// muxGauge resolves a master-wide mux gauge; nil-safe for hand-built test
// peers.
func (p *peerConn) muxGauge(name string) *metrics.Gauge {
	if p.gauges == nil {
		return new(metrics.Gauge)
	}
	return p.gauges.Gauge(name)
}

// muxLinkDown is the supervision hook a dying mux link runs exactly once:
// a pre-mux peer (never proven) downgrades without feeding the breaker; a
// real link fault counts as ONE failure no matter how many requests were
// pending on the pipeline.
func (p *peerConn) muxLinkDown(err error) {
	if errors.Is(err, errMuxUnsupported) && !p.isMuxProven() {
		p.markSerialOnly()
		return
	}
	p.recordFailure()
}

// closeMux tears the mux link down on master shutdown (no breaker).
func (p *peerConn) closeMux() {
	p.muxMu.Lock()
	mc := p.muxc
	p.muxMu.Unlock()
	if mc != nil {
		mc.close()
	}
}

// muxEnsure returns the live mux client, building one if the previous link
// died: it adopts the peer's idle control connection when present (the
// eager dial from Connect), else redials. dialed reports whether this call
// dialed, for span attribution.
func (p *peerConn) muxEnsure(cfg SupervisorConfig) (mc *muxClient, dialed bool, err error) {
	p.muxMu.Lock()
	defer p.muxMu.Unlock()
	if p.muxc != nil && p.muxc.alive() {
		return p.muxc, false, nil
	}
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.mu.Unlock()
	if conn == nil {
		p.counter("redials").Inc()
		c, derr := transport.Dial(p.addr, cfg.DialTimeout)
		if derr != nil {
			return nil, true, derr
		}
		conn = c
		dialed = true
	}
	p.muxc = newMuxClient(conn, dialed, p.muxGauge("mux.inflight"), p.muxGauge("mux.queue_depth"), p.muxLinkDown)
	return p.muxc, dialed, nil
}

// muxTimeout reads the per-request deadline under the conn lock.
func (p *peerConn) muxTimeout() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.timeout
}

// muxAttempts is the mux-path counterpart of doAttempts: the same bounded
// retry loop and span emission, with breaker accounting shifted onto the
// link-down hook so a failure with N pipelined requests costs one strike,
// not N. A caller-cancelled ctx (muxCallerAbort) abandons the request
// without retrying or feeding the breaker — the link stays up.
func (p *peerConn) muxAttempts(ctx context.Context, done <-chan struct{}, cfg SupervisorConfig, tr *trace.Tracer, peerCtx trace.Context, payload []byte) (PredictResult, error) {
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if !p.allowSpend("retry") {
				break // budget dry: no speculative traffic during a brownout
			}
			p.counter("retries").Inc()
			backoffStart := time.Now()
			if !cfg.RetryBackoff.Sleep(attempt-1, done) {
				if err := ctx.Err(); err != nil {
					return PredictResult{}, err
				}
				break // master closing
			}
			tr.Record(peerCtx, "backoff", "", "", backoffStart, time.Since(backoffStart))
			if !p.available() {
				break // breaker tripped while we backed off
			}
			if !p.muxEligible() {
				return PredictResult{}, errMuxUnsupported // downgraded while backing off
			}
		}
		res, tm, err, outcome := p.muxOnce(ctx, done, cfg, payload)
		p.emitAttempt(tr, peerCtx, tm, err)
		if err == nil {
			p.recordSuccess()
			return res, nil
		}
		if errors.Is(err, errMuxUnsupported) && !p.isMuxProven() {
			return PredictResult{}, errMuxUnsupported // do() falls back to serial
		}
		lastErr = err
		switch outcome {
		case muxWorkerErr:
			// The worker answered; the request itself is bad. No retry,
			// no breaker accounting.
			return PredictResult{}, err
		case muxCallerAbort:
			// The caller's deadline fired or it was cancelled: the peer did
			// nothing wrong. No retry, no breaker accounting.
			return PredictResult{}, err
		case muxDialFault:
			p.recordFailure()
		case muxLinkFault:
			// Already counted once by muxLinkDown.
		}
	}
	return PredictResult{}, fmt.Errorf("cluster: peer %s: %w", p.addr, lastErr)
}

// muxOnce performs one pipelined round trip.
func (p *peerConn) muxOnce(ctx context.Context, done <-chan struct{}, cfg SupervisorConfig, payload []byte) (PredictResult, attemptTiming, error, muxOutcome) {
	var tm attemptTiming
	dialStart := time.Now()
	mc, dialed, err := p.muxEnsure(cfg)
	if dialed {
		tm.dialed = true
		tm.dialStart = dialStart
		tm.dialDur = time.Since(dialStart)
	}
	if err != nil {
		return PredictResult{}, tm, err, muxDialFault
	}
	p.counter("requests").Inc()
	tm.rttStart = time.Now()
	r, rtt, err := mc.roundTrip(ctx, payload, p.muxTimeout(), done)
	tm.rtt = rtt
	if err != nil {
		if ctx.Err() != nil {
			return PredictResult{}, tm, err, muxCallerAbort
		}
		return PredictResult{}, tm, err, muxLinkFault
	}
	p.markMuxProven()
	if r.typ == MsgErrorMux {
		return PredictResult{}, tm, fmt.Errorf("worker error: %s", r.payload), muxWorkerErr
	}
	res, rest, derr := decodeResultRest(r.payload)
	if derr != nil {
		// Undecodable result: corrupted link, not a bad request — tear the
		// pipeline down like the serial path drops its conn.
		mc.fail(derr)
		return PredictResult{}, tm, derr, muxLinkFault
	}
	tm.remote, _ = extractComputeTime(rest)
	return res, tm, nil, muxOK
}
