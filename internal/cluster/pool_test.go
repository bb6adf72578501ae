package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Tests of the server loop's pooled buffers (server.go frameBufs, node.go
// inputs): what they save, pinned as an allocation budget, and what they
// must never cost — a buffer reused while a handler still reads it.

// servedExpert starts a worker node serving spec's network, labelled v1.
func servedExpert(t *testing.T, spec nn.Spec) (*Node, *nn.Snapshot, string) {
	t.Helper()
	net, err := spec.Build(tensor.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	snap := nn.MustSnapshot(net)
	n := NewWorkerModel(Model{Snapshot: snap, Version: "v1"}, 1)
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, snap, addr
}

// TestExpertNodeAllocationBudget: in steady state an expert node answering
// the batch16 request — 16×784, whole query or a split tail from boundary 0 —
// allocates at most 8 KiB per request. The request frame alone is ~50 KB
// (100 KB for a float64 tail) and its decoded input 100 KB, so this holds
// only while both come from the server loop's pools. The client writes
// pre-encoded frames and reads replies into one reused buffer: what
// TotalAlloc counts is the node's.
func TestExpertNodeAllocationBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts; the budget is enforced without -race")
	}
	const budget = 8 << 10
	_, snap, addr := servedExpert(t, nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 784, Width: 64, Layers: 2, Classes: 10}})
	x := tensor.NewRNG(78).RandUniform(0, 1, 16, 784)
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"whole query", Request{X: x, Policy: Policy{Gather: Own}}},
		{"split tail", Request{X: snap.ForwardRange(x, 0, 0), Policy: Policy{Gather: Own, Split: SplitAt(0)}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var frame bytes.Buffer
			if err := transport.WriteFrame(&frame, MsgDo, requestPayload(requestHeader{id: 1, pin: "v1"}, encodeRequest(c.req))); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReaderSize(conn, 64<<10)
			reply := make([]byte, 64<<10)
			roundTrip := func() {
				if _, err := conn.Write(frame.Bytes()); err != nil {
					t.Fatal(err)
				}
				typ, _, err := transport.ReadFrame(br, reply)
				if err != nil || typ != MsgReply {
					t.Fatalf("reply type %d, err %v; want type %d", typ, err, MsgReply)
				}
			}
			for i := 0; i < 50; i++ { // warm-up: pools fill, snapshot arenas grow
				roundTrip()
			}
			const requests = 400
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < requests; i++ {
				roundTrip()
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / requests
			if per > budget {
				t.Fatalf("%d bytes allocated per request, budget %d", per, budget)
			}
			t.Logf("%d bytes allocated per request", per)
		})
	}
}

// hammerCase is one pipelined request of the hammer and the one reply it
// must get.
type hammerCase struct {
	frame     []byte // whole frame, header and id included
	replyType byte
	reply     []byte // expected body after the reply header; nil: any error text
}

// TestPooledBufferHammer: eight goroutines pipeline a mix on one connection —
// MsgDo under three policies, a whole query and a split tail for the node's
// own expert and an ensemble request for its master, of 1–16 rows, then
// malformed tensors and spent budgets — while the node recycles frame
// buffers and input tensors under them. Every success must be bit-identical to the forward
// pass run here on the same rows, every bad frame must get exactly its
// MsgErrorMux, and the connection must keep serving. A buffer handed to the
// next frame while a handler still reads it shows up as a wrong answer, or
// under -race (make verify; CI runs it -count=20) as a race.
func TestPooledBufferHammer(t *testing.T) {
	spec := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 24, Width: 12, Layers: 3, Classes: 5}}
	n, snap, addr := servedExpert(t, spec)
	const senders, perSender = 8, 40
	rng := rand.New(rand.NewSource(79))
	xs := tensor.NewRNG(80)
	cases := make([]hammerCase, senders*perSender)
	for i := range cases {
		id := uint32(i + 1)
		rows := 1 + rng.Intn(16)
		x := xs.Randn(rows, 24)
		wireX, _, err := transport.DecodeTensor(transport.EncodeTensor(x))
		if err != nil {
			t.Fatal(err)
		}
		probs, ent := snap.PredictWithEntropy(wireX)
		answer := Reply{Probs: probs, Entropy: ent.Data, Winners: make([]int, rows), Live: 1, Total: 1}
		hdr := requestHeader{id: id}
		var body []byte
		c := &cases[i]
		c.replyType = MsgReply
		switch kind := rng.Intn(5); kind {
		case 0:
			body, c.reply = ownBody(x), encodeReply(answer, false)
		case 1:
			at := rng.Intn(snap.Steps() + 1)
			hdr.pin = "v1"
			tail := Request{X: snap.ForwardRange(x, 0, at), Policy: Policy{Gather: Own, Split: SplitAt(at)}}
			body = encodeRequest(tail)
			head, err := decodeRequest(body, nil)
			if err != nil {
				t.Fatal(err)
			}
			answer = runSplitTail(snap, head.X, at)
			answer.Winners, answer.Live, answer.Total = make([]int, rows), 1, 1
			c.reply = encodeReply(answer, true)
		case 2:
			// The master's combined answer: a node without peers gates its
			// own expert alone.
			body, c.reply = encodeRequest(Request{X: x}), encodeReply(answer, false)
		case 3:
			// Malformed: a rank byte and nothing after it, or an input of the
			// wrong width (the forward pass panics and is recovered).
			switch rng.Intn(3) {
			case 0:
				body = ownBody(x)[:requestPrefixSize+1]
			case 1:
				body = ownBody(xs.Randn(rows, 23))
			case 2:
				body = encodeRequest(Request{X: xs.Randn(rows, 23), Policy: Policy{Gather: Own, Split: SplitAt(0)}})
			}
			c.replyType = MsgErrorMux
		case 4:
			hdr.budget = time.Nanosecond // spent before any handler slot
			body = ownBody(x)
			c.replyType, c.reply = MsgErrorMux, []byte(expiredText)
		}
		var frame bytes.Buffer
		if err := transport.WriteFrame(&frame, MsgDo, requestPayload(hdr, body)); err != nil {
			t.Fatal(err)
		}
		c.frame = frame.Bytes()
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	// net.Conn serializes concurrent Writes whole, and each frame is one.
	var senderWG sync.WaitGroup
	defer func() {
		conn.Close() // a failed check must not leave a sender blocked
		senderWG.Wait()
	}()
	for s := 0; s < senders; s++ {
		senderWG.Add(1)
		go func(s int) {
			defer senderWG.Done()
			for i := s; i < len(cases); i += senders {
				if _, err := conn.Write(cases[i].frame); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	answered := make([]bool, len(cases))
	br := bufio.NewReader(conn)
	for got := range cases {
		typ, payload, err := transport.ReadFrame(br)
		if err != nil {
			t.Fatalf("after %d replies: %v", got, err)
		}
		h, body, err := decodeReplyHeader(payload)
		if err != nil || h.id < 1 || int(h.id) > len(cases) || answered[h.id-1] {
			t.Fatalf("reply type %d id %d (err %v): not one outstanding request's", typ, h.id, err)
		}
		answered[h.id-1] = true
		if c := cases[h.id-1]; typ != c.replyType || (c.reply != nil && !bytes.Equal(body, c.reply)) || len(body) == 0 {
			t.Fatalf("request %d answered type %d %s, want type %d %s", h.id, typ, clip(body), c.replyType, clip(c.reply))
		}
	}
	senderWG.Wait()
	expectServing(t, conn)
	if got := n.Metrics().Counter("panics.recovered").Value(); got == 0 {
		t.Fatal("no mis-shaped tensor reached a forward pass")
	}
}

// clip renders at most 24 bytes of a body for a failure message.
func clip(b []byte) string {
	if len(b) > 24 {
		return fmt.Sprintf("%q… (%d bytes)", b[:24], len(b))
	}
	return fmt.Sprintf("%q", b)
}
