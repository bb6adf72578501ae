package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Failure-injection tests: the runtime must fail loudly and promptly when
// edge nodes misbehave — a wedge or a silent wrong answer would be worse
// than an error on a real deployment.

// bestEffort is Do under the BestEffort rule, spread into the values the
// degraded-mode tests assert on.
func bestEffort(m *Master, x *tensor.Tensor) (probs *tensor.Tensor, winners []int, live int, err error) {
	rep, err := m.Do(context.Background(), Request{X: x, Policy: Policy{Gather: BestEffort}})
	return rep.Probs, rep.Winners, rep.Live, err
}

// tinySpec compiles to three steps, so it has interior split boundaries.
var tinySpec = nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 4, Width: 4, Layers: 2, Classes: 3}}

func tinyExpert(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	net, err := tinySpec.Build(tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestMasterInferAfterWorkerDeath(t *testing.T) {
	worker := NewWorker(tinyExpert(t, 1), 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := NewMaster(tinyExpert(t, 2), 3)
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(3).Randn(1, 4)
	if _, _, err := master.Infer(x); err != nil {
		t.Fatal(err)
	}
	// Kill the worker; the next inference must error, not hang or fabricate.
	if err := worker.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := master.Infer(x); err == nil {
		t.Fatal("inference succeeded against a dead worker")
	}
	if err := master.Ping(); err == nil {
		t.Fatal("ping succeeded against a dead worker")
	}
}

func TestMasterConnectRefused(t *testing.T) {
	master := NewMaster(nil, 3)
	defer master.Close()
	if err := master.Connect("127.0.0.1:1"); err == nil {
		t.Fatal("connect to closed port succeeded")
	}
}

// TestWorkerRejectsMalformedPredict: a garbage tensor inside a well-formed
// mux frame costs one MsgErrorMux addressed to that request; the frame
// boundary is intact, so the connection keeps serving.
func TestWorkerRejectsMalformedPredict(t *testing.T) {
	worker := NewWorker(tinyExpert(t, 4), 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.WriteFrame(conn, MsgDo, requestPayload(requestHeader{id: 7}, []byte{0xFF, 0x01})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := transport.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if h, text, _ := decodeReplyHeader(payload); typ != MsgErrorMux || h.id != 7 || len(text) == 0 {
		t.Fatalf("worker answered type %d id %d %q to malformed predict", typ, h.id, text)
	}
	conn.SetDeadline(time.Now().Add(time.Second))
	expectServing(t, conn)
}

func TestWorkerSurvivesAbruptDisconnects(t *testing.T) {
	worker := NewWorker(tinyExpert(t, 6), 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()

	// Several clients connect and vanish without a clean shutdown.
	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = transport.WriteFrame(conn, MsgPing, requestPayload(requestHeader{id: 1}, nil))
		conn.Close()
	}
	// The worker must still serve new clients.
	master := NewMaster(nil, 3)
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	if err := master.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestMasterPartialFailureQuadro(t *testing.T) {
	// Three healthy workers plus one that dies: the whole inference errors
	// (the Figure 1(d) protocol gathers from every node).
	var workers []*Node
	master := NewMaster(nil, 3)
	defer master.Close()
	for i := 0; i < 4; i++ {
		w := NewWorker(tinyExpert(t, int64(10+i)), i)
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		if err := master.Connect(addr); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, w := range workers[:3] {
			w.Close()
		}
	}()
	x := tensor.NewRNG(7).Randn(1, 4)
	if _, _, err := master.Infer(x); err != nil {
		t.Fatal(err)
	}
	workers[3].Close()
	if _, _, err := master.Infer(x); err == nil {
		t.Fatal("partial node failure not surfaced")
	}
}

func TestMasterTimeoutOnSilentWorker(t *testing.T) {
	// A listener that accepts connections but never answers: without a
	// deadline the master would wait forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 1024)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
					// swallow input, never reply
				}
			}()
		}
	}()

	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetTimeout(100 * time.Millisecond)
	if err := master.Connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(8).Randn(1, 4)
	start := time.Now()
	_, _, err = master.Infer(x)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("silent worker did not time out")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", elapsed)
	}
	ln.Close()
	<-done
}

func TestMasterTimeoutDoesNotTripHealthyWorker(t *testing.T) {
	worker := NewWorker(tinyExpert(t, 30), 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	master := NewMaster(nil, 3)
	defer master.Close()
	master.SetTimeout(5 * time.Second)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(9).Randn(2, 4)
	for i := 0; i < 3; i++ { // deadline must reset between round trips
		if _, _, err := master.Infer(x); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

func TestBestEffortSurvivesNodeLoss(t *testing.T) {
	// Two healthy workers, one dead: best-effort must answer from the
	// survivors while strict Infer fails.
	w1 := NewWorker(tinyExpert(t, 40), 1)
	a1, err := w1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2 := NewWorker(tinyExpert(t, 41), 2)
	a2, err := w2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	master := NewMaster(tinyExpert(t, 42), 3)
	defer master.Close()
	for _, a := range []string{a1, a2} {
		if err := master.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	x := tensor.NewRNG(43).Randn(2, 4)
	probs, winners, live, err := bestEffort(master, x)
	if err != nil || live != 3 {
		t.Fatalf("healthy best effort: live=%d err=%v", live, err)
	}
	if probs.Rows() != 2 || len(winners) != 2 {
		t.Fatal("result shape wrong")
	}

	w2.Close()
	if _, _, err := master.Infer(x); err == nil {
		t.Fatal("strict Infer survived node loss")
	}
	probs, winners, live, err = bestEffort(master, x)
	if err != nil {
		t.Fatalf("best effort failed after single node loss: %v", err)
	}
	if live != 2 {
		t.Fatalf("live = %d, want 2", live)
	}
	for b, w := range winners {
		if w == 2 { // slot 2 is the dead peer
			t.Fatalf("sample %d won by dead node", b)
		}
	}
	if probs.HasNaN() {
		t.Fatal("NaN in degraded result")
	}
}

func TestBestEffortAllDead(t *testing.T) {
	w := NewWorker(tinyExpert(t, 44), 1)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := NewMaster(nil, 3) // no local expert
	defer master.Close()
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, _, err := bestEffort(master, tensor.NewRNG(45).Randn(1, 4)); err == nil {
		t.Fatal("best effort succeeded with zero live nodes")
	}
}

func TestElectionSkipsDeadPeersButCountsLive(t *testing.T) {
	w := NewWorker(tinyExpert(t, 20), 6)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// One dead peer, one live peer with id 6: id 3 must lose to 6, dead
	// peer ignored.
	isLeader, leaderID, err := ElectLeader(3, []string{"127.0.0.1:1", addr})
	if err != nil {
		t.Fatal(err)
	}
	if isLeader || leaderID != 6 {
		t.Fatalf("election with dead peer: isLeader=%v leaderID=%d", isLeader, leaderID)
	}
}
