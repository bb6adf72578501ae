package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Conformance test for the server loop (server.go). Every row runs against a
// Node that has a snapshot and a master without peers, once per policy a
// client leads with: the header verdicts (short, unknown version, expired,
// pinned) and the serving counters must come out the same whether the
// request asks for the node's own expert — {Own}, what a master sends each
// peer — or for the master's combined answer — {Strict}, what a gateway
// sends. The node is built under the role whose traffic that is.

// lead is the request a run of the rows drives.
type lead struct {
	role   string
	gather Gather
	passes string // the histogram that counts its forward passes
	panics string // the counter of panics recovered inside its forward pass
}

var leads = []lead{
	{RoleWorker, Own, "predict", "panics.recovered"},
	{RoleMaster, Strict, "infer.total", "local.panics_recovered"},
}

// body is x as a MsgDo body under the lead's policy.
func (l lead) body(x *tensor.Tensor) []byte {
	return encodeRequest(Request{X: x, Policy: Policy{Gather: l.gather}})
}

// servedNode is one node under test and the request the rows lead with.
type servedNode struct {
	*Node
	lead
	addr string
	body []byte // a well-formed request body of the lead's policy
	// The injected blocking handler signals entered when it starts and
	// returns once release is closed.
	entered chan struct{}
	release chan struct{}
}

// Frame types the rows add to a node's kinds table before it listens.
const (
	kindPanics byte = 0x7D
	kindBlocks byte = 0x7E
)

const servedNodeID = 300

// ownBody is x as a MsgDo body for the node's own expert.
func ownBody(x *tensor.Tensor) []byte { return lead{gather: Own}.body(x) }

// startNode builds a fresh node with two extra request kinds — one that
// panics, one that blocks — and starts it listening.
func startNode(t *testing.T, l lead) servedNode {
	t.Helper()
	m := NewMaster(tinyExpert(t, 220), 3)
	n := servedNode{Node: NewNode(l.role, m, servedNodeID), lead: l, entered: make(chan struct{}, 1), release: make(chan struct{})}
	n.body = l.body(tensor.NewRNG(222).Randn(1, 4))
	t.Cleanup(func() { n.Close(); m.Close() })
	n.kinds = maps.Clone(requestKinds)
	n.kinds[kindPanics] = func(*Node, context.Context, *Model, []byte) (byte, []byte, time.Duration) {
		panic("handler blew up")
	}
	n.kinds[kindBlocks] = func(_ *Node, _ context.Context, _ *Model, body []byte) (byte, []byte, time.Duration) {
		n.entered <- struct{}{}
		<-n.release
		return MsgErrorMux, body, 0
	}
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = addr
	return n
}

func (n servedNode) counter(name string) int64 { return n.Metrics().Counter(name).Value() }

// forwardPasses is the number of forward passes the lead's requests have run
// so far.
func (n servedNode) forwardPasses() int64 { return n.Metrics().Histogram(n.passes).Count() }

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

// ask sends one request of kind typ under id 1 and returns the type and body
// of the reply, which must answer that id.
func ask(t *testing.T, conn net.Conn, typ byte, body []byte) (byte, []byte) {
	t.Helper()
	rtyp, reply := exchange(t, conn, typ, requestPayload(requestHeader{id: 1}, body))
	h, rbody, err := decodeReplyHeader(reply)
	if err != nil || h.id != 1 {
		t.Fatalf("frame type %d answered type %d %q: header %+v, %v", typ, rtyp, reply, h, err)
	}
	return rtyp, rbody
}

// expectClosed asserts the server hung up: the next read ends the stream.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	if typ, _, err := transport.ReadFrame(conn); err == nil {
		t.Fatalf("connection still open, read frame type %d", typ)
	}
}

// expectServing asserts the connection still answers a ping with the empty
// reply.
func expectServing(t *testing.T, conn net.Conn) {
	t.Helper()
	if typ, body := ask(t, conn, MsgPing, nil); typ != MsgReply || len(body) != 0 {
		t.Fatalf("ping answered with type %d %q", typ, body)
	}
}

// pushPayload is a model push of fresh weights for an input-wide,
// classes-way MLP.
func pushPayload(t *testing.T, version string, input, classes int) []byte {
	t.Helper()
	spec := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: input, Width: 4, Layers: 2, Classes: classes}}
	net, err := spec.Build(tensor.NewRNG(223))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeModelPush(version, spec, net)
	if err != nil {
		t.Fatal(err)
	}
	return payload
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
			typ, reply := ask(t, n.dial(t), MsgElection, nil)
			if typ != MsgReply || len(reply) != 4 || int(binary.BigEndian.Uint32(reply)) != servedNodeID {
				t.Fatalf("election reply type %d % x, want id %d in 4 bytes", typ, reply, servedNodeID)
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
			if want := (Member{Role: n.lead.role, Addr: n.addr, ID: servedNodeID}); from != want {
				t.Fatalf("node announced itself as %+v, want %+v", from, want)
			}
			if got := n.Roster().Snapshot(); len(got) != 2 {
				t.Fatalf("node roster %+v, want the caller and its gossip", got)
			}
			if got := mine.Snapshot(); len(got) != 3 {
				t.Fatalf("caller roster %+v, want the node merged in", got)
			}
		}},
		{"undecodable announce draws one error frame and the connection serves on", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			if typ, text := ask(t, conn, MsgAnnounce, []byte("{")); typ != MsgErrorMux || len(text) == 0 {
				t.Fatalf("bad announce answered type %d %q", typ, text)
			}
			expectServing(t, conn)
		}},
		{"bad model push costs one error frame", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			if typ, text := ask(t, conn, MsgModelPush, []byte{0}); typ != MsgErrorMux || len(text) == 0 {
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
			if typ, acked := ask(t, conn, MsgModelPush, payload); typ != MsgReply || string(acked) != "v2" {
				t.Fatalf("push answered type %d %q", typ, acked)
			}
			if v := n.Member().Version; v != "v2" {
				t.Fatalf("node version %q after push", v)
			}
			expectServing(t, conn)
		}},
		{"model push of another width is refused: one error frame, nothing swapped", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			push := func(version string, input, classes int) (byte, []byte) {
				return ask(t, conn, MsgModelPush, pushPayload(t, version, input, classes))
			}
			served := n.Model()
			for _, bad := range []struct{ input, classes int }{{5, 3}, {4, 4}} {
				if typ, text := push("v9", bad.input, bad.classes); typ != MsgErrorMux || len(text) == 0 {
					t.Fatalf("%d-wide, %d-class push onto a 4-wide, 3-class node answered type %d %q", bad.input, bad.classes, typ, text)
				}
				if n.Model() != served {
					t.Fatalf("refused push replaced the served model with %+v", n.Model())
				}
				expectServing(t, conn)
			}
			if got := n.counter("model.push_refused"); got != 2 {
				t.Fatalf("model.push_refused = %d, want 2", got)
			}
			if typ, acked := push("v3", 4, 3); typ != MsgReply || string(acked) != "v3" {
				t.Fatalf("same-width push answered type %d %q", typ, acked)
			}
			if got := n.Model(); got == served || got.Version != "v3" || got.Snapshot == served.Snapshot {
				t.Fatalf("accepted push left the node serving %+v", got)
			}
		}},
		{"unknown frame type is refused and the connection dropped", func(t *testing.T, n servedNode) {
			// A reply kind is not a request either, nor is a retired one: the
			// whole-query request, the pong.
			for _, typ := range []byte{0x7F, MsgReply, 7, 2} {
				conn := n.dial(t)
				rtyp, text := exchange(t, conn, typ, nil)
				if rtyp != MsgError || !strings.Contains(string(text), "unknown frame type") {
					t.Fatalf("frame type %d answered type %d %q", typ, rtyp, text)
				}
				expectClosed(t, conn)
			}
		}},
		{"request too short for a header is refused and the connection dropped", func(t *testing.T, n servedNode) {
			whole := requestPayload(requestHeader{id: 1, pin: "v1"}, nil)
			for _, short := range [][]byte{{}, whole[:2], whole[:requestHeaderFixed-1], whole[:len(whole)-1]} {
				conn := n.dial(t)
				if rtyp, _ := exchange(t, conn, MsgDo, short); rtyp != MsgError {
					t.Fatalf("%d-byte MsgDo answered type %d", len(short), rtyp)
				}
				expectClosed(t, conn)
			}
		}},
		{"headerless ping is refused and the connection dropped", func(t *testing.T, n servedNode) {
			// What a node of the build before every exchange took the header
			// sends: it must fail loudly.
			conn := n.dial(t)
			if rtyp, text := exchange(t, conn, MsgPing, nil); rtyp != MsgError || !strings.Contains(string(text), "header") {
				t.Fatalf("headerless ping answered type %d %q", rtyp, text)
			}
			expectClosed(t, conn)
		}},
		{"unknown header version is refused and the connection dropped", func(t *testing.T, n servedNode) {
			// What a PR-15 node sends: a 4-byte id, then the body. It must
			// fail loudly, not be parsed as something else.
			old := append([]byte{0, 0, 0, 1}, n.body...)
			next := requestPayload(requestHeader{id: 1}, n.body)
			next[0] = headerVersion + 1
			for _, payload := range [][]byte{old, next} {
				conn := n.dial(t)
				rtyp, text := exchange(t, conn, MsgDo, payload)
				if rtyp != MsgError || !strings.Contains(string(text), "header version") {
					t.Fatalf("header version %d answered type %d %q", payload[0], rtyp, text)
				}
				expectClosed(t, conn)
			}
		}},
		{"malformed request body costs one MsgErrorMux", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			typ, reply := exchange(t, conn, MsgDo, requestPayload(requestHeader{id: 5}, []byte{0xFF}))
			if h, text, _ := decodeReplyHeader(reply); typ != MsgErrorMux || h.id != 5 || len(text) == 0 {
				t.Fatalf("malformed body answered type %d id %d %q", typ, h.id, text)
			}
			expectServing(t, conn)
		}},
		{"mis-shaped tensor costs one MsgErrorMux and one recovered panic", func(t *testing.T, n servedNode) {
			// A 1×3 input for a 4-wide expert: the forward pass panics. This
			// frame killed a `teamnet-moe -mode node` process while SG-MoE-G
			// expert nodes ran a server loop of their own.
			conn := n.dial(t)
			typ, reply := exchange(t, conn, MsgDo, requestPayload(requestHeader{id: 6}, n.lead.body(tensor.NewRNG(224).Randn(1, 3))))
			if h, text, _ := decodeReplyHeader(reply); typ != MsgErrorMux || h.id != 6 || len(text) == 0 {
				t.Fatalf("mis-shaped tensor answered type %d id %d %q", typ, h.id, text)
			}
			if got := n.counter(n.panics); got != 1 {
				t.Fatalf("%s = %d, want 1", n.panics, got)
			}
			if rtyp, _ := exchange(t, conn, MsgDo, requestPayload(requestHeader{id: 7}, n.body)); rtyp != MsgReply {
				t.Fatalf("request after the panic answered type %d", rtyp)
			}
		}},
		{"budget spent before a handler slot frees is answered expired without a forward pass", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			// Fill the connection's handler window, then queue two requests
			// behind it: one with 10 ms of budget, one with none.
			for i := 0; i < handlerWindow; i++ {
				if err := transport.WriteFrame(conn, kindBlocks, requestPayload(requestHeader{id: 1000 + uint32(i)}, nil)); err != nil {
					t.Fatal(err)
				}
				<-n.entered
			}
			for _, h := range []requestHeader{{id: 1, budget: 10 * time.Millisecond}, {id: 2}} {
				if err := transport.WriteFrame(conn, MsgDo, requestPayload(h, n.body)); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(30 * time.Millisecond)
			close(n.release)
			answers := make(map[uint32]byte)
			for len(answers) < 2 {
				typ, reply, err := transport.ReadFrame(conn)
				if err != nil {
					t.Fatal(err)
				}
				h, text, err := decodeReplyHeader(reply)
				if err != nil {
					t.Fatal(err)
				}
				if h.id == 1 && string(text) != expiredText {
					t.Fatalf("request past its budget answered type %d %q", typ, text)
				}
				if h.id <= 2 {
					answers[h.id] = typ
				}
			}
			if answers[1] != MsgErrorMux || answers[2] != MsgReply {
				t.Fatalf("answers by id %v: want the budgeted request expired and the unbudgeted one served", answers)
			}
			if got := n.counter("requests.expired"); got != 1 {
				t.Fatalf("requests.expired = %d, want 1", got)
			}
			if got := n.counter("requests"); got != 1 {
				t.Fatalf("requests = %d, want the unbudgeted MsgDo alone counted as served", got)
			}
			if got := n.forwardPasses(); got != 1 {
				t.Fatalf("%d forward passes, want only the unbudgeted request's", got)
			}
		}},
		{"model push whose budget is spent before a handler slot frees is answered expired and swaps nothing", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			for i := 0; i < handlerWindow; i++ {
				if err := transport.WriteFrame(conn, kindBlocks, requestPayload(requestHeader{id: 1000 + uint32(i)}, nil)); err != nil {
					t.Fatal(err)
				}
				<-n.entered
			}
			// A budget far shorter than the wait for a slot, which only frees
			// once the blocked handlers are released below.
			push := requestPayload(requestHeader{id: 1, budget: time.Nanosecond}, pushPayload(t, "v2", 4, 3))
			if err := transport.WriteFrame(conn, MsgModelPush, push); err != nil {
				t.Fatal(err)
			}
			served := n.Model()
			close(n.release)
			for {
				typ, reply, err := transport.ReadFrame(conn)
				if err != nil {
					t.Fatal(err)
				}
				if h, text, _ := decodeReplyHeader(reply); h.id == 1 {
					if typ != MsgErrorMux || string(text) != expiredText {
						t.Fatalf("push past its budget answered type %d %q", typ, text)
					}
					break
				}
			}
			if n.Model() != served {
				t.Fatalf("expired push replaced the served model with %+v", n.Model())
			}
			if got := n.counter("requests.expired"); got != 0 {
				t.Fatalf("requests.expired = %d, want 0: it counts MsgDo alone", got)
			}
		}},
		{"version pin is checked under every policy and empty means any", func(t *testing.T, n servedNode) {
			install(t, n.Swap, Model{Version: "v1"})
			conn := n.dial(t)
			x := tensor.NewRNG(225).Randn(1, 4)
			for _, p := range []Policy{{Gather: Own}, {Gather: Own, Split: SplitAt(1)}, {Gather: Quorum}} {
				rtyp, reply := exchange(t, conn, MsgDo, requestPayload(requestHeader{id: 3, pin: "v2"}, encodeRequest(Request{X: x, Policy: p})))
				_, text, _ := decodeReplyHeader(reply)
				if err := workerError(string(text)); rtyp != MsgErrorMux || !errors.Is(err, ErrSplitVersionMismatch) {
					t.Fatalf("%+v pinned to another version answered type %d %q", p, rtyp, text)
				}
			}
			if got := n.forwardPasses(); got != 0 {
				t.Fatalf("%d forward passes for refused requests", got)
			}
			for _, pin := range []string{"v1", ""} {
				if rtyp, reply := exchange(t, conn, MsgDo, requestPayload(requestHeader{id: 4, pin: pin}, n.body)); rtyp != MsgReply {
					t.Fatalf("pin %q on a node serving v1 answered type %d %q", pin, rtyp, reply)
				}
			}
		}},
		{"handler panic costs only its connection", func(t *testing.T, n servedNode) {
			bystander, poisoned := n.dial(t), n.dial(t)
			expectServing(t, bystander)
			if err := transport.WriteFrame(poisoned, kindPanics, requestPayload(requestHeader{id: 1}, nil)); err != nil {
				t.Fatal(err)
			}
			expectClosed(t, poisoned)
			if got := n.counter("panics.recovered"); got != 1 {
				t.Fatalf("panics.recovered = %d, want 1", got)
			}
			expectServing(t, bystander)
		}},
		{"panic on the read loop's own write costs only its connection", func(t *testing.T, n servedNode) {
			conn := &panicConn{}
			if err := transport.WriteFrame(&conn.buf, MsgPing, nil); err != nil {
				t.Fatal(err)
			}
			n.wg.Add(1)
			n.handleConn(conn) // headerless → MsgError → Write panics → recover
			if got := n.counter("panics.recovered"); got != 1 || !conn.closed {
				t.Fatalf("panics.recovered = %d, closed = %v; want 1, true", got, conn.closed)
			}
			expectServing(t, n.dial(t))
		}},
		{"Close waits for the in-flight handler", func(t *testing.T, n servedNode) {
			conn := n.dial(t)
			if err := transport.WriteFrame(conn, kindBlocks, requestPayload(requestHeader{id: 1}, nil)); err != nil {
				t.Fatal(err)
			}
			<-n.entered
			closed := make(chan struct{})
			go func() { n.Close(); close(closed) }()
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
	for _, l := range leads {
		for _, row := range rows {
			t.Run(l.role+"/"+row.name, func(t *testing.T) {
				row.run(t, startNode(t, l))
			})
		}
	}
}
