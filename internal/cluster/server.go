package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// The server loop: the one accept/read/dispatch loop of the runtime, run by
// every Node. It listens, tracks its connections, runs every request —
// inference, ping, election, announce, model push alike — concurrently under
// a bounded window and replies out of order, contains a panic to the
// connection it happened on, and closes only after every handler has
// returned.

// errorReply is a handler's verdict on a request it cannot serve.
func errorReply(err error) (byte, []byte, time.Duration) {
	return MsgErrorMux, []byte(err.Error()), 0
}

// handlerWindow bounds the pipelined requests one connection may have in
// flight: the read loop blocks past it, so a flooding client gets TCP
// backpressure instead of unbounded handler goroutines. The snapshots have
// no concurrency limit of their own — this window is a node's only
// compute-parallelism bound.
const handlerWindow = 64

// Listen binds to addr (use "127.0.0.1:0" for tests) and serves in the
// background. It returns the bound address.
func (n *Node) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: %s listen %s: %w", n.role, addr, err)
	}
	n.mu.Lock()
	n.ln = ln
	n.addr = ln.Addr().String()
	n.conns = make(map[net.Conn]struct{})
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.handleConn(conn)
	}
}

// handleConn is the per-connection serving goroutine; the caller has done
// wg.Add. The recover is the node's last line of defense: serveConn
// promises that a malformed request costs one error frame, but a panic
// escaping a handler's own recover (decode, trace or write paths) must cost
// only this connection — never the serving process.
func (n *Node) handleConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
	}()
	defer n.containPanic(nil)
	n.serveConn(conn)
}

// containPanic recovers a panic into "panics.recovered" and, for a pipelined
// handler, closes the connection it poisoned.
func (n *Node) containPanic(poisoned net.Conn) {
	if r := recover(); r != nil {
		n.master.metrics.Counter("panics.recovered").Inc()
		if poisoned != nil {
			poisoned.Close()
		}
	}
}

// connWriter serializes frame writes on one connection: the read loop and
// the concurrent handlers interleave whole frames, never bytes, and every
// frame leaves in one write.
type connWriter struct {
	mu    sync.Mutex
	conn  net.Conn
	batch transport.FrameBatch
}

func (cw *connWriter) write(typ byte, payload []byte) error {
	return cw.send(typ, nil, payload)
}

// writeReply sends a pipelined reply: the header, then body (not copied).
func (cw *connWriter) writeReply(typ byte, h replyHeader, body []byte) error {
	var hdr [replyHeaderSize]byte
	return cw.send(typ, appendReplyHeader(hdr[:0], h), body)
}

func (cw *connWriter) send(typ byte, prefix, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := cw.batch.Add(typ, prefix, payload); err != nil {
		return err
	}
	return cw.batch.Flush(cw.conn)
}

// frameBufs holds the buffers serveConn reads frames into. A buffer leaves
// the pool for one frame and returns once that frame's reply has been
// written — so a handler copies whatever it keeps of its body, as every
// decoder does. A frame that outgrew its buffer arrives in fresh memory,
// which then replaces the buffer unless it is past
// transport.MaxPooledScratch: the pool settles at the size the traffic
// sends, and a model push pins nothing.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// releaseFrame returns buf to frameBufs, holding payload's memory instead
// when the frame outgrew it and still fits the cap.
func releaseFrame(buf *[]byte, payload []byte) {
	if c := cap(payload); c > cap(*buf) && c <= transport.MaxPooledScratch {
		*buf = payload[:0]
	}
	frameBufs.Put(buf)
}

// serveConn reads frames until the connection ends. A frame has two
// outcomes. A request of a kind in n.kinds under a header this build parses
// runs in its own goroutine and is answered under its id; whatever its
// handler cannot serve — a bad tensor, a bad announce, a refused model push —
// costs one MsgErrorMux and the connection keeps serving. Anything else — an
// unknown type, a frame without such a header, so no id to answer under —
// is answered with MsgError and the connection dropped.
func (n *Node) serveConn(conn net.Conn) {
	cw := &connWriter{conn: conn}
	sem := make(chan struct{}, handlerWindow)
	br := bufio.NewReaderSize(conn, connReadBuffer)
	for {
		buf := frameBufs.Get().(*[]byte)
		typ, payload, err := transport.ReadFrame(br, *buf)
		if err != nil {
			frameBufs.Put(buf)
			return
		}
		arrived := time.Now()
		hdr, body, err := decodeRequestHeader(payload)
		k, ok := n.kinds[typ]
		if !ok {
			err = fmt.Errorf("unknown frame type %d", typ)
		}
		if err != nil {
			_ = cw.write(MsgError, []byte(err.Error()))
			return
		}
		sem <- struct{}{}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() { <-sem }()
			defer n.containPanic(conn)
			replyType, reply, compute := n.serveRequest(typ, k, hdr, arrived, body)
			_ = cw.writeReply(replyType, replyHeader{id: hdr.id, compute: compute}, reply)
			releaseFrame(buf, payload)
		}()
	}
}

// serveRequest is the prelude every request of kind typ passes before its
// handler k, the one reader of the header's budget, version pin and trace: a
// request whose budget ran out while it waited for a handler slot is answered
// "expired" with its body never decoded (a MsgDo counted in
// "requests.expired"), a request pinned to a model version this node is not
// serving is refused in ErrSplitVersionMismatch's wire text, and the
// handler's ctx is bounded by what is left of the budget (counted from
// arrival: no clock sync) and carries the trace parent. The served model is
// loaded once: the value the pin is compared to is the value the handler
// computes on, so a swap landing in between cannot put vB's weights behind a
// pin that passed against vA.
func (n *Node) serveRequest(typ byte, k handler, hdr requestHeader, arrived time.Time, body []byte) (byte, []byte, time.Duration) {
	ctx := context.Background()
	if hdr.budget > 0 {
		if time.Since(arrived) >= hdr.budget {
			if typ == MsgDo {
				n.master.metrics.Counter("requests.expired").Inc()
			}
			return MsgErrorMux, []byte(expiredText), 0
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, arrived.Add(hdr.budget))
		defer cancel()
	}
	model := n.Model()
	if hdr.pin != "" && hdr.pin != model.Version {
		return MsgErrorMux, []byte(fmt.Sprintf("%sserving %q, request pinned to %q", splitVersionMismatchPrefix, model.Version, hdr.pin)), 0
	}
	if hdr.trace.Valid() {
		ctx = trace.NewContext(ctx, hdr.trace)
	}
	return k(n, ctx, model, body)
}

// expiredText answers a request whose budget was spent before a handler
// could start on it.
const expiredText = "expired"

// Close stops accepting, closes open connections and returns once every
// connection goroutine and in-flight handler has.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closed = true
	ln := n.ln
	for conn := range n.conns {
		conn.Close()
	}
	n.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	n.wg.Wait()
	return err
}
