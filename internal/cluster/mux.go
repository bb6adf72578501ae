package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// Multiplexed peer transport: the one client of the wire protocol, for
// master→worker, front→master and every one-off exchange alike. The
// paper's protocol is strictly one-in-flight per peer link — fine for a
// single sensing loop, fatal for multi-user traffic, where every concurrent
// Master.Infer would serialize behind the previous one no matter how much
// parallel capacity the worker's snapshot has. A muxClient pipelines
// instead:
//
//	waiters ──▶ window (bounded in-flight) ──▶ writer goroutine ──▶ TCP
//	waiters ◀── pending map (by request id) ◀── reader goroutine ◀── TCP
//
// Every request is one frame of a kind in requestKinds — MsgDo, or a ping,
// election, announce or model push — tagged with a uint32 id in its frame
// header (header.go); the server runs them concurrently and replies out of
// order, and the single reader matches replies back to waiters. One TCP
// connection per peer, its link, carries the whole pipeline, whatever mix
// of policies and kinds rides it: the supervisor's pings share it with the
// queries whose liveness they judge.
//
// Failure semantics integrate with the supervisor state machine: a link
// failure (read/write error, per-request timeout) tears the client down,
// fails every pending request with the same error, and feeds the breaker
// exactly once — not once per waiter. That includes the death of a link
// nobody was using, such as the one Connect dials when the worker restarts
// before the first query: one link fault, and the next request redials.
// Every node of a fleet runs one build (DESIGN.md §8); a peer that answers
// with anything but mux frames is a link fault too.

// muxWindow bounds the in-flight requests one mux link may carry. Beyond
// it, waiters queue (reported by the mux.queue_depth gauge) — backpressure
// beats unbounded buffering on an edge link.
const muxWindow = 32

// muxReply is one matched response delivered to a waiter.
type muxReply struct {
	typ     byte          // MsgReply or MsgErrorMux
	payload []byte        // reply body, header already stripped
	compute time.Duration // the header's compute time
	err     error
}

// muxClient pipelines requests onto one connection: single writer
// goroutine, single reader goroutine, pending-request map, bounded
// in-flight window.
type muxClient struct {
	conn     net.Conn
	writeCh  chan muxWrite
	window   chan struct{} // in-flight slots
	inflight *metrics.Gauge
	queued   *metrics.Gauge
	onDown   func(error) // supervision hook; called exactly once
	downOnce sync.Once

	mu      sync.Mutex
	pending map[uint32]chan muxReply
	nextID  uint32
	down    bool
	downErr error
	downCh  chan struct{} // closed when the link dies
}

type muxWrite struct {
	typ     byte
	hdr     requestHeader
	payload []byte
}

// newMuxClient takes ownership of conn and starts the writer and reader.
// The same pipeline drives every peer link, a master's to its workers and a
// front's to its masters; the policy is per request.
func newMuxClient(conn net.Conn, inflight, queued *metrics.Gauge, onDown func(error)) *muxClient {
	mc := &muxClient{
		conn:     conn,
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
// loops), run the supervision hook, and deliver err to every pending
// waiter. Concurrent callers collapse into the first.
func (mc *muxClient) fail(err error) { mc.shut(err, mc.onDown) }

// close shuts the link down without feeding the supervisor — master
// shutdown, not a failure.
func (mc *muxClient) close() { mc.shut(errors.New("cluster: mux client closed"), nil) }

func (mc *muxClient) shut(err error, onDown func(error)) {
	mc.downOnce.Do(func() {
		mc.mu.Lock()
		mc.down = true
		mc.downErr = err
		pending := mc.pending
		mc.pending = make(map[uint32]chan muxReply)
		close(mc.downCh)
		mc.mu.Unlock()
		mc.conn.Close()
		// The supervisor hears of the fault before any waiter does, so a
		// waiter that acts on the error sees the breaker already fed.
		if onDown != nil {
			onDown(err)
		}
		for _, ch := range pending {
			ch <- muxReply{err: err}
		}
	})
}

// writeLoop is the single writer: it owns the connection's write side.
func (mc *muxClient) writeLoop() {
	var batch transport.FrameBatch
	var hdr []byte // header scratch; Add copies it next to the frame header
	for {
		select {
		case w := <-mc.writeCh:
			if err := mc.writeBurst(&batch, &hdr, w); err != nil {
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
// header rides next to the frame header; the payload is not copied.
func (mc *muxClient) writeBurst(batch *transport.FrameBatch, hdr *[]byte, w muxWrite) error {
	for {
		*hdr = appendRequestHeader((*hdr)[:0], w.hdr)
		if err := batch.Add(w.typ, *hdr, w.payload); err != nil {
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
// Anything that is not a MsgReply or MsgErrorMux under a header of this build —
// including a MsgError, which a server only sends before it hangs up — is a
// link fault.
func (mc *muxClient) readLoop() {
	br := bufio.NewReaderSize(mc.conn, connReadBuffer)
	for {
		typ, payload, err := transport.ReadFrame(br)
		if err != nil {
			mc.fail(fmt.Errorf("cluster: mux read: %w", err))
			return
		}
		switch typ {
		case MsgReply, MsgErrorMux:
			h, body, perr := decodeReplyHeader(payload)
			if perr != nil {
				mc.fail(perr)
				return
			}
			mc.deliver(h.id, muxReply{typ: typ, payload: body, compute: h.compute})
		case MsgError:
			mc.fail(fmt.Errorf("cluster: peer refused the stream: %s", payload))
			return
		default:
			mc.fail(fmt.Errorf("cluster: unexpected frame type %d on mux link", typ))
			return
		}
	}
}

// deliver hands one matched reply to its waiter; replies to ids nobody
// waits for (a request that timed out) are dropped on the floor.
func (mc *muxClient) deliver(id uint32, r muxReply) {
	mc.mu.Lock()
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

// roundTrip pipelines one request of kind typ whose body is payload: acquire
// a window slot, send, await the matched reply within timeout. It is where the
// request header is filled: the id it registers, ctx's remaining deadline as
// the budget, ctx's ambient span (trace.FromContext) as the trace parent,
// and pin.
//
// done aborts the waits — it merges master shutdown with the caller's ctx
// cancellation (joinDone); abortErr(ctx) names which one fired. A caller
// abort abandons only this request (the late reply is dropped, the link
// stays up), whereas a timeout is a link failure — with requests pipelined
// behind each other a stalled link wedges them all, so it is torn down (and
// the breaker fed once) like any other link fault.
func (mc *muxClient) roundTrip(ctx context.Context, typ byte, pin string, payload []byte, timeout time.Duration, done <-chan struct{}) (muxReply, time.Duration, error) {
	if len(pin) > maxVersionPin {
		return muxReply{}, 0, fmt.Errorf("cluster: model version label of %d bytes exceeds %d", len(pin), maxVersionPin)
	}
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
	hdr := requestHeader{id: id, trace: trace.FromContext(ctx), pin: pin}
	start := time.Now()
	if dl, ok := ctx.Deadline(); ok {
		// Never 0 (= no deadline): one already past goes out as spent.
		hdr.budget = max(dl.Sub(start), 1)
	}
	select {
	case mc.writeCh <- muxWrite{typ: typ, hdr: hdr, payload: payload}:
	case <-mc.downCh:
		mc.unregister(id)
		return muxReply{}, 0, mc.downError()
	case <-done:
		mc.unregister(id)
		return muxReply{}, 0, abortErr(ctx)
	}
	select {
	case r := <-ch:
		rtt := time.Since(start)
		return r, rtt, r.err
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

// link is the one connection a peer keeps to its address: a mux client,
// dialed on demand.
type link struct {
	addr             string
	inflight, queued *metrics.Gauge
	redials          *metrics.Counter // dials that replace a client
	onDown           func(error)      // the supervision hook of every client get dials
	load             atomic.Int64     // MsgDo round trips in flight: a front's pick rule

	mu     sync.Mutex
	mc     *muxClient
	closed bool
}

// get returns the live client, dialing a fresh connection within timeout if
// there is none or the last one died. dialed reports whether this call
// dialed, for span attribution.
func (l *link) get(timeout time.Duration) (mc *muxClient, dialed bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, false, fmt.Errorf("cluster: link to %s is closed", l.addr)
	}
	if l.mc != nil && l.mc.alive() {
		return l.mc, false, nil
	}
	if l.mc != nil {
		l.redials.Inc()
	}
	if mc, err = l.dial(timeout, l.onDown); err == nil {
		l.mc = mc
	}
	return mc, true, err
}

// dial starts a client with the hook onDown over a fresh connection, without
// installing it.
func (l *link) dial(timeout time.Duration, onDown func(error)) (*muxClient, error) {
	conn, err := transport.Dial(l.addr, timeout)
	if err != nil {
		return nil, err
	}
	return newMuxClient(conn, l.inflight, l.queued, onDown), nil
}

// replace installs a probe's mc in place of the quarantined peer's client,
// dead or stalled, which it closes without running the hook. It reports false
// once the link is closed; the caller closes an mc it could not install.
func (l *link) replace(mc *muxClient) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	if l.mc != nil {
		l.mc.close()
	}
	l.mc = mc
	return true
}

// close shuts the link down for good without running the hook — shutdown,
// not a failure; pending requests fail promptly.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	mc := l.mc
	l.mu.Unlock()
	if mc != nil {
		mc.close()
	}
}

// attempt makes one MsgDo round trip of q — the one a peer's query, split
// tail and a front's request each make: the live client (dialed within dial
// if there is none), counted in requests, the reply awaited within timeout. A
// MsgErrorMux answer comes back as the node's error text (muxWorkerErr); a
// reply that does not decode to q's shape fails the client — a corrupted
// link or a hostile peer, not a bad request.
func (l *link) attempt(ctx context.Context, done <-chan struct{}, q peerQuery, dial, timeout time.Duration, requests *metrics.Counter) (Reply, attemptTiming, error, muxOutcome) {
	var tm attemptTiming
	dialStart := time.Now()
	mc, dialed, err := l.get(dial)
	if dialed {
		tm.dialed, tm.dialStart, tm.dialDur = true, dialStart, time.Since(dialStart)
	}
	if err != nil {
		return Reply{}, tm, err, muxDialFault
	}
	requests.Inc()
	tm.rttStart = time.Now()
	l.load.Add(1)
	r, rtt, err := mc.roundTrip(ctx, MsgDo, q.pin, q.payload, timeout, done)
	l.load.Add(-1)
	tm.rtt = rtt
	switch {
	case err != nil && ctx.Err() != nil:
		return Reply{}, tm, err, muxCallerAbort
	case err != nil:
		return Reply{}, tm, err, muxLinkFault
	case r.typ == MsgErrorMux:
		return Reply{}, tm, errors.New(string(r.payload)), muxWorkerErr
	}
	res, err := decodeReply(r.payload, q.wide, q.rows, q.classes)
	if err != nil {
		mc.fail(err)
		return Reply{}, tm, err, muxLinkFault
	}
	tm.remote, tm.degraded = r.compute, res.Live < res.Total
	tm.wire = frameBytes(requestHeaderFixed+len(q.pin), len(q.payload)) + frameBytes(replyHeaderSize, len(r.payload))
	return res, tm, nil, muxOK
}

// dialCall makes one round trip of a typ request carrying body on a link
// dialed for it, then closes the link: the client of the one-off exchanges
// (election, announce, model push). timeout bounds the dial and, as the
// request's budget, the round trip (0: no bound). A MsgErrorMux answer is
// returned as the node's error text.
func dialCall(addr string, timeout time.Duration, typ byte, body []byte) ([]byte, error) {
	conn, err := transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	mc := newMuxClient(conn, new(metrics.Gauge), new(metrics.Gauge), nil)
	defer mc.close()
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	r, _, err := mc.roundTrip(ctx, typ, "", body, 0, ctx.Done())
	if err == nil && r.typ == MsgErrorMux {
		err = errors.New(string(r.payload))
	}
	return r.payload, err
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

// muxLinkDown is the supervision hook a dying mux link runs exactly once:
// a link fault counts as ONE failure no matter how many requests were
// pending on the pipeline.
func (p *peerConn) muxLinkDown(error) { p.recordFailure() }

// muxAttempts is do's bounded retry loop with span emission under peerCtx.
// Breaker accounting sits on the link-down hook, so a failure with N
// pipelined requests costs one strike, not N. A caller-cancelled ctx
// (muxCallerAbort) abandons the request without retrying or feeding the
// breaker — the link stays up.
func (p *peerConn) muxAttempts(ctx context.Context, done <-chan struct{}, cfg SupervisorConfig, tr *trace.Tracer, peerCtx trace.Context, q peerQuery) (Reply, error) {
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if !p.allowSpend() {
				break // budget dry: no retry storm during a brownout
			}
			p.counter("retries").Inc()
			backoffStart := time.Now()
			if !cfg.RetryBackoff.Sleep(attempt-1, done) {
				if err := ctx.Err(); err != nil {
					return Reply{}, err
				}
				break // master closing
			}
			tr.Record(peerCtx, "backoff", "", "", backoffStart, time.Since(backoffStart))
			if !p.available() {
				break // breaker tripped while we backed off
			}
		}
		res, tm, err, outcome := p.attempt(ctx, done, cfg.DialTimeout, q)
		p.emitAttempt(tr, peerCtx, q, tm, err)
		if err == nil {
			p.recordSuccess()
			return res, nil
		}
		lastErr = err
		switch outcome {
		case muxWorkerErr:
			// The worker answered: the request itself is bad, its budget was
			// spent ("expired") or its version pin refused. No retry, no
			// breaker accounting.
			return Reply{}, err
		case muxCallerAbort:
			// The caller's deadline fired or it was cancelled: the peer did
			// nothing wrong. No retry, no breaker accounting.
			return Reply{}, err
		case muxDialFault:
			p.recordFailure()
		case muxLinkFault:
			// Already counted once by muxLinkDown.
		}
	}
	return Reply{}, fmt.Errorf("cluster: peer %s: %w", p.addr, lastErr)
}

// attempt is one MsgDo attempt of q on the peer's link: dialed within dial,
// bounded by the master's timeout, a worker's refusal rehydrated
// (workerError).
func (p *peerConn) attempt(ctx context.Context, done <-chan struct{}, dial time.Duration, q peerQuery) (Reply, attemptTiming, error, muxOutcome) {
	res, tm, err, outcome := p.link.attempt(ctx, done, q, dial, time.Duration(p.m.timeout.Load()), p.counter(q.series+"requests"))
	if outcome == muxWorkerErr {
		err = workerError(err.Error())
	}
	return res, tm, err, outcome
}
