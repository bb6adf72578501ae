package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// frameServer is the one accept/read/dispatch loop of the runtime. Worker
// and MasterServer are the same server with different request kinds: both
// listen, track their connections, answer the control frames (ping,
// election, announce, model push) in line, run pipelined requests
// concurrently under a bounded window and reply out of order, contain a
// panic to the connection it happened on, and close only after every
// handler has returned. What differs per node is the configuration below.
type frameServer struct {
	member      func() Member     // this node's membership descriptor (and election id)
	roster      *Roster           // membership view, fed by announce exchanges
	model       func() *Model     // the model this node serves, never nil
	swap        func(Model) error // applies a model push; an error refuses it
	metrics     *metrics.Registry
	panicName   string // counter bumped for every recovered panic
	expiredName string // counter bumped for every request whose budget ran out unserved
	// kinds maps a pipelined request frame type to its handler. Handlers run
	// concurrently.
	kinds map[byte]handler

	mu     sync.Mutex
	ln     net.Listener
	addr   string // bound listen address, set by listen
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// handler answers one pipelined request. The header has been parsed and
// honoured by the time it runs: ctx carries the request's remaining budget
// as its deadline and the request's trace parent as its ambient span, so a
// handler that sends requests of its own passes on what it received; model
// is the served model the request's version pin was checked against, the one
// a handler that runs the node's own expert must run. body is the payload
// after the header. It returns the reply frame type and body — an error is
// just a MsgErrorMux reply — and the time its forward pass took (0 if none
// ran), which goes back in the reply header.
type handler func(ctx context.Context, model *Model, body []byte) (replyType byte, reply []byte, compute time.Duration)

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

// listen binds to addr (use "127.0.0.1:0" for tests) and serves in the
// background. It returns the bound address.
func (s *frameServer) listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.addr = ln.Addr().String()
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// boundAddr returns the address listen bound ("" before it).
func (s *frameServer) boundAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

func (s *frameServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn is the per-connection serving goroutine; the caller has done
// wg.Add. The recover is the node's last line of defense: serveConn
// promises that a malformed request costs one error frame, but a panic
// escaping a handler's own recover (decode, trace or write paths) must cost
// only this connection — never the serving process.
func (s *frameServer) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	defer s.containPanic(nil)
	s.serveConn(conn)
}

// containPanic recovers a panic into the node's panic counter and, for a
// pipelined handler, closes the connection it poisoned.
func (s *frameServer) containPanic(poisoned net.Conn) {
	if r := recover(); r != nil {
		s.metrics.Counter(s.panicName).Inc()
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

// serveConn reads frames until the connection ends. A frame that leaves the
// stream unusable — an unknown type, a pipelined request without a header
// this build can parse (so no id to answer under), an undecodable announce —
// is answered with MsgError and the connection dropped; anything a handler
// can answer in band (a bad tensor, a bad model push) costs one error frame
// and the connection keeps serving.
func (s *frameServer) serveConn(conn net.Conn) {
	cw := &connWriter{conn: conn}
	sem := make(chan struct{}, handlerWindow)
	br := bufio.NewReaderSize(conn, connReadBuffer)
	for {
		typ, payload, err := transport.ReadFrame(br)
		if err != nil {
			return
		}
		if handle, ok := s.kinds[typ]; ok {
			arrived := time.Now()
			hdr, body, err := decodeRequestHeader(payload)
			if err != nil {
				_ = cw.write(MsgError, []byte(err.Error()))
				return
			}
			sem <- struct{}{}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() { <-sem }()
				defer s.containPanic(conn)
				replyType, reply, compute := s.serveRequest(handle, hdr, arrived, body)
				_ = cw.writeReply(replyType, replyHeader{id: hdr.id, compute: compute}, reply)
			}()
			continue
		}
		var replyType byte
		var reply []byte
		switch typ {
		case MsgPing:
			replyType = MsgPong
		case MsgElection:
			// Bully: any node hearing an election answers with its id (it
			// will run its own election).
			replyType, reply = MsgElectionOK, electionReply(s.member().ID)
		case MsgAnnounce:
			reply, err = handleAnnounce(s.roster, s.member(), payload)
			if err != nil {
				_ = cw.write(MsgError, []byte(err.Error()))
				return
			}
			replyType = MsgAnnounceOK
		case MsgModelPush:
			// The swap happens before the ack is written, so a successful
			// PushModel means the node already serves the new version. A bad
			// push costs one error frame, not the connection: the frame
			// boundary is intact. So does a refused one — weights whose widths
			// differ from the served model's — and nothing is swapped.
			pushed, perr := DecodeModelPush(payload)
			if perr == nil {
				if perr = s.swap(pushed); perr != nil {
					s.metrics.Counter("model.push_refused").Inc()
				}
			}
			replyType, reply = MsgModelPushOK, []byte(pushed.Version)
			if perr != nil {
				replyType, reply = MsgError, []byte(perr.Error())
			}
		default:
			_ = cw.write(MsgError, []byte(fmt.Sprintf("unknown frame type %d", typ)))
			return
		}
		if err := cw.write(replyType, reply); err != nil {
			return
		}
	}
}

// serveRequest is the prelude every pipelined request passes before its
// handler, the one reader of the header's budget, version pin and trace: a
// request whose budget ran out while it waited for a handler slot is
// answered "expired" with its body never decoded, a request pinned to a
// model version this node is not serving is refused in
// ErrSplitVersionMismatch's wire text, and the handler's ctx is bounded by
// what is left of the budget (counted from arrival: no clock sync) and
// carries the trace parent. The served model is loaded once: the value the
// pin is compared to is the value the handler computes on, so a swap landing
// in between cannot put vB's weights behind a pin that passed against vA.
func (s *frameServer) serveRequest(handle handler, hdr requestHeader, arrived time.Time, body []byte) (byte, []byte, time.Duration) {
	ctx := context.Background()
	if hdr.budget > 0 {
		if time.Since(arrived) >= hdr.budget {
			s.metrics.Counter(s.expiredName).Inc()
			return MsgErrorMux, []byte(expiredText), 0
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, arrived.Add(hdr.budget))
		defer cancel()
	}
	model := s.model()
	if hdr.pin != "" && hdr.pin != model.Version {
		return MsgErrorMux, []byte(fmt.Sprintf("%sserving %q, request pinned to %q", splitVersionMismatchPrefix, model.Version, hdr.pin)), 0
	}
	if hdr.trace.Valid() {
		ctx = trace.NewContext(ctx, hdr.trace)
	}
	return handle(ctx, model, body)
}

// expiredText answers a request whose budget was spent before a handler
// could start on it.
const expiredText = "expired"

// close stops accepting, closes open connections and returns once every
// connection goroutine and in-flight handler has.
func (s *frameServer) close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
