package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/transport"
)

// Conformance test for the shared server loop (server.go): every row runs
// against a Worker and against a MasterServer, because both are the same
// frameServer and must give the same verdict on every control frame, every
// malformed stream and every panic.

// servedNode is one node under test, reduced to what the rows need.
type servedNode struct {
	srv     *frameServer
	addr    string
	id      int
	role    string
	request byte // the node's primary pipelined request kind
	// The injected blocking handler signals entered when it starts and
	// returns once release is closed.
	entered chan struct{}
	release chan struct{}
}

// Frame types the rows inject into a node's kinds table before it listens.
const (
	kindPanics byte = 0x7D
	kindBlocks byte = 0x7E
)

// startNode builds a fresh node of the given role with two extra request
// kinds — one that panics, one that blocks — and starts it listening.
func startNode(t *testing.T, role string) servedNode {
	t.Helper()
	n := servedNode{role: role, entered: make(chan struct{}, 1), release: make(chan struct{})}
	var listen func(string) (string, error)
	switch role {
	case RoleWorker:
		w := NewWorker(tinyExpert(t, 220), 300)
		n.srv, n.id, n.request, listen = w.srv, 300, MsgPredictMux, w.Listen
		t.Cleanup(func() { w.Close() })
	case RoleMaster:
		m := NewMaster(tinyExpert(t, 221), 3)
		s := NewMasterServer(m, 301)
		n.srv, n.id, n.request, listen = s.srv, 301, MsgFabricPredict, s.Listen
		t.Cleanup(func() { s.Close(); m.Close() })
	}
	n.srv.kinds[kindPanics] = func([]byte) (byte, []byte) { panic("handler blew up") }
	n.srv.kinds[kindBlocks] = func(body []byte) (byte, []byte) {
		n.entered <- struct{}{}
		<-n.release
		return MsgErrorMux, body
	}
	addr, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = addr
	return n
}

func (n servedNode) dial(t *testing.T) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", n.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

func (n servedNode) panics() int64 { return n.srv.counters.Counter(n.srv.panicName).Value() }

// exchange sends one frame and reads one back.
func exchange(t *testing.T, conn net.Conn, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := transport.WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	rtyp, reply, err := transport.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no reply to frame type %d: %v", typ, err)
	}
	return rtyp, reply
}

// expectClosed asserts the server hung up: the next read ends the stream.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	if typ, _, err := transport.ReadFrame(conn); err == nil {
		t.Fatalf("connection still open, read frame type %d", typ)
	}
}

// expectServing asserts the connection still answers.
func expectServing(t *testing.T, conn net.Conn) {
	t.Helper()
	if typ, _ := exchange(t, conn, MsgPing, nil); typ != MsgPong {
		t.Fatalf("ping answered with type %d", typ)
	}
}

// panicConn is a net.Conn stub whose read side replays canned frames and
// whose write side panics — the hostile case the per-connection recover
// must contain.
type panicConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed bool
}

func (c *panicConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.buf.Len() == 0 {
		return 0, io.EOF
	}
	return c.buf.Read(p)
}

func (c *panicConn) Write(p []byte) (int, error) { panic("write side blew up") }
func (c *panicConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
func (c *panicConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *panicConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *panicConn) SetDeadline(t time.Time) error      { return nil }
func (c *panicConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *panicConn) SetWriteDeadline(t time.Time) error { return nil }

func TestServerLoopConformance(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, n servedNode)
	}{
		{"ping answers pong", func(t *testing.T, n servedNode) {
			expectServing(t, n.dial(t))
		}},
		{"election answers the 4-byte id", func(t *testing.T, n servedNode) {
			typ, reply := exchange(t, n.dial(t), MsgElection, nil)
			if typ != MsgElectionOK || len(reply) != 4 || int(binary.BigEndian.Uint32(reply)) != n.id {
				t.Fatalf("election reply type %d % x, want id %d in 4 bytes", typ, reply, n.id)
			}
		}},
		{"announce merges both rosters", func(t *testing.T, n servedNode) {
			caller := Member{Role: RoleGateway, Addr: "10.0.0.9:80", ID: 9}
			gossip := Member{Role: RoleMaster, Addr: "10.0.0.7:7190", ID: 7}
			mine := NewRoster()
			mine.Upsert(gossip)
			from, err := Announce(n.addr, caller, mine, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if want := (Member{Role: n.role, Addr: n.addr, ID: n.id}); from != want {
				t.Fatalf("node announced itself as %+v, want %+v", from, want)
			}
			if got := n.srv.roster.Snapshot(); len(got) != 2 {
				t.Fatalf("node roster %+v, want the caller and its gossip", got)
			}
			if got := mine.Snapshot(); len(got) != 3 {
				t.Fatalf("caller roster %+v, want the node merged in", got)
			}
		}},
		{"undecodable announce drops the connection", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			if typ, _ := exchange(t, conn, MsgAnnounce, []byte("{")); typ != MsgError {
				t.Fatalf("bad announce answered with type %d", typ)
			}
			expectClosed(t, conn)
		}},
		{"bad model push costs one error frame", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			if typ, text := exchange(t, conn, MsgModelPush, []byte{0}); typ != MsgError || len(text) == 0 {
				t.Fatalf("bad push answered type %d %q", typ, text)
			}
			expectServing(t, conn)
		}},
		{"version-only model push re-labels the node", func(t *testing.T, n servedNode) {
			payload, err := EncodeModelPush("v2", nn.Spec{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			conn := n.dial(t)
			if typ, acked := exchange(t, conn, MsgModelPush, payload); typ != MsgModelPushOK || string(acked) != "v2" {
				t.Fatalf("push answered type %d %q", typ, acked)
			}
			if v := n.srv.member().Version; v != "v2" {
				t.Fatalf("node version %q after push", v)
			}
			expectServing(t, conn)
		}},
		{"unknown frame type is refused and the connection dropped", func(t *testing.T, n servedNode) {
			// MsgPredict is the retired serial request: reserved, never served.
			for _, typ := range []byte{0x7F, MsgPredict} {
				conn := n.dial(t)
				rtyp, text := exchange(t, conn, typ, nil)
				if rtyp != MsgError || !strings.Contains(string(text), "unknown frame type") {
					t.Fatalf("frame type %d answered type %d %q", typ, rtyp, text)
				}
				expectClosed(t, conn)
			}
		}},
		{"request too short for an id is refused and the connection dropped", func(t *testing.T, n servedNode) {
			for _, typ := range []byte{n.request, MsgSplitPredict} {
				conn := n.dial(t)
				if rtyp, _ := exchange(t, conn, typ, []byte{0, 1}); rtyp != MsgError {
					t.Fatalf("short frame type %d answered type %d", typ, rtyp)
				}
				expectClosed(t, conn)
			}
		}},
		{"malformed request body costs one MsgErrorMux", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			typ, reply := exchange(t, conn, n.request, appendMuxID(5, []byte{0xFF}))
			if id, text, _ := splitMuxID(reply); typ != MsgErrorMux || id != 5 || len(text) == 0 {
				t.Fatalf("malformed body answered type %d id %d %q", typ, id, text)
			}
			expectServing(t, conn)
		}},
		{"handler panic costs only its connection", func(t *testing.T, n servedNode) {
			bystander, poisoned := n.dial(t), n.dial(t)
			expectServing(t, bystander)
			if err := transport.WriteFrame(poisoned, kindPanics, appendMuxID(1, nil)); err != nil {
				t.Fatal(err)
			}
			expectClosed(t, poisoned)
			if got := n.panics(); got != 1 {
				t.Fatalf("%s = %d, want 1", n.srv.panicName, got)
			}
			expectServing(t, bystander)
		}},
		{"panic on the read loop's own write costs only its connection", func(t *testing.T, n servedNode) {
			conn := &panicConn{}
			if err := transport.WriteFrame(&conn.buf, MsgPing, nil); err != nil {
				t.Fatal(err)
			}
			n.srv.wg.Add(1)
			n.srv.handleConn(conn) // pong → Write panics → recover
			if got := n.panics(); got != 1 || !conn.closed {
				t.Fatalf("%s = %d, closed = %v; want 1, true", n.srv.panicName, got, conn.closed)
			}
			expectServing(t, n.dial(t))
		}},
		{"Close waits for the in-flight handler", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			if err := transport.WriteFrame(conn, kindBlocks, appendMuxID(1, nil)); err != nil {
				t.Fatal(err)
			}
			<-n.entered
			closed := make(chan struct{})
			go func() { n.srv.close(); close(closed) }()
			select {
			case <-closed:
				t.Fatal("Close returned while a handler was still running")
			case <-time.After(50 * time.Millisecond):
			}
			close(n.release)
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close never returned after the handler did")
			}
		}},
	}
	for _, role := range []string{RoleWorker, RoleMaster} {
		for _, row := range rows {
			t.Run(role+"/"+row.name, func(t *testing.T) {
				row.run(t, startNode(t, role))
			})
		}
	}
}
