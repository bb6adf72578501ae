package cluster

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Fabric tests: membership gossip, versioned model push, a master Node
// behind a front, and an Own request over the wire. All run under -race via
// the full test suite.

// fabricSpec is a tiny MLP used across the fabric tests.
var fabricSpec = nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 4, Width: 8, Layers: 1, Classes: 3}}

func buildFabricNet(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	n, err := fabricSpec.Build(tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func fabricInput(rows int) *tensor.Tensor {
	x := tensor.New(rows, 4)
	for i := range x.Data {
		x.Data[i] = float64(i%7) / 7
	}
	return x
}

// doOver sends req to the node at addr as one MsgDo and decodes its MsgReply.
func doOver(t *testing.T, addr string, req Request) Reply {
	t.Helper()
	conn, err := transport.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mc := newMuxClient(conn, new(metrics.Gauge), new(metrics.Gauge), nil)
	defer mc.close()
	r, _, err := mc.roundTrip(context.Background(), MsgDo, "", encodeRequest(req), 5*time.Second, testDone(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.typ != MsgReply {
		t.Fatalf("%+v answered type %d %q", req.Policy, r.typ, r.payload)
	}
	rep, err := decodeReply(r.payload, req.Policy.wide(), req.X.Shape[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOwnRequestRunsOnlyThisNodesExpert: {Own, SplitOff} to a master node
// with live peers is answered by that node's expert alone — no broadcast, no
// peer asked — bit-identical to its forward pass of the float32 input.
func TestOwnRequestRunsOnlyThisNodesExpert(t *testing.T) {
	var workers []*Node
	master := NewMaster(buildFabricNet(t, 2), 3)
	defer master.Close()
	for i := range 2 {
		w, addr := snapshotWorker(t, int64(40+i), i+1)
		workers = append(workers, w)
		if err := master.Connect(addr); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewNode(RoleMaster, master, 7)
	maddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := fabricInput(2)
	rep := doOver(t, maddr, Request{X: x, Policy: Policy{Gather: Own}})
	wireX, _, err := transport.DecodeTensor(transport.EncodeTensor(x))
	if err != nil {
		t.Fatal(err)
	}
	wantProbs, wantEnt := master.Local().Snapshot.PredictWithEntropy(wireX)
	roundToFloat32(wantProbs) // the answer travels float32
	assertBitIdentical(t, "own answer", rep.Probs, wantProbs, rep.Entropy, wantEnt.Data)
	if rep.Live != 1 || rep.Total != 1 || !slices.Equal(rep.Winners, []int{0, 0}) {
		t.Fatalf("own answer live=%d total=%d winners=%v, want 1/1 and this node's", rep.Live, rep.Total, rep.Winners)
	}
	for i, w := range workers {
		if got := w.Metrics().Counter("requests").Value(); got != 0 {
			t.Fatalf("peer %d served %d requests for an own request", i, got)
		}
	}
	if got := srv.Metrics().Counter("requests").Value(); got != 1 {
		t.Fatalf("the master node served %d requests, want 1", got)
	}
}

// TestOwnRequestBitMatchesTheLocalForward: on one node, a tail entering at
// boundary 0 answers exactly ForwardRange → softmax of the float64 input,
// and a whole query exactly PredictWithEntropy of the float32 one.
func TestOwnRequestBitMatchesTheLocalForward(t *testing.T) {
	w, addr := snapshotWorker(t, 44, 1)
	snap := w.Model().Snapshot
	x := tensor.NewRNG(45).Randn(3, 4)

	rep := doOver(t, addr, Request{X: x, Policy: Policy{Gather: Own, Split: SplitAt(0)}})
	logits := snap.ForwardRange(x, 0, snap.Steps())
	tensor.SoftmaxRowsInto(logits.Data, logits.Data, 3, 3)
	assertBitIdentical(t, "{Own, SplitAt(0)}", rep.Probs, logits, rep.Entropy, tensor.EntropyRows(logits).Data)

	rep = doOver(t, addr, Request{X: x, Policy: Policy{Gather: Own}})
	wireX, _, err := transport.DecodeTensor(transport.EncodeTensor(x))
	if err != nil {
		t.Fatal(err)
	}
	probs, ent := snap.PredictWithEntropy(wireX)
	roundToFloat32(probs) // the answer travels float32
	assertBitIdentical(t, "{Own, SplitOff}", rep.Probs, probs, rep.Entropy, ent.Data)
}

// roundToFloat32 rounds t's values as a float32 wire encoding does.
func roundToFloat32(t *tensor.Tensor) {
	for i, v := range t.Data {
		t.Data[i] = float64(float32(v))
	}
}

func TestModelPushCodecRoundTrip(t *testing.T) {
	net := buildFabricNet(t, 11)
	payload, err := EncodeModelPush("v7", fabricSpec, net)
	if err != nil {
		t.Fatal(err)
	}
	pushed, err := DecodeModelPush(payload)
	if err != nil {
		t.Fatal(err)
	}
	version, snap := pushed.Version, pushed.Snapshot
	if version != "v7" || snap == nil {
		t.Fatalf("version=%q snap=%v", version, snap)
	}
	// The rebuilt snapshot must predict bit-identically to the original.
	x := fabricInput(2)
	want := nn.MustSnapshot(net).Predict(x)
	got := snap.Predict(x)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) != 0 {
			t.Fatalf("pushed snapshot diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}

	// Version-only push carries no snapshot.
	vo, err := EncodeModelPush("v8", nn.Spec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pushed, err = DecodeModelPush(vo)
	if err != nil || pushed.Version != "v8" || pushed.Snapshot != nil {
		t.Fatalf("version-only push: %+v %v", pushed, err)
	}

	if _, err := DecodeModelPush([]byte{0}); err == nil {
		t.Fatal("truncated model push accepted")
	}
}

func TestMasterServerFabricEndToEnd(t *testing.T) {
	// One worker behind a master with a local expert, served over the
	// fabric; a front routing to it must see the same answers as direct
	// master calls, strict and quorum.
	worker := NewWorker(buildFabricNet(t, 1), 1)
	waddr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()

	master := NewMaster(buildFabricNet(t, 2), 3)
	defer master.Close()
	if err := master.Connect(waddr); err != nil {
		t.Fatal(err)
	}

	srv := NewNode(RoleMaster, master, 7)
	install(t, master.SetLocal, Model{Version: "vA"})
	maddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	front := NewFront(3)
	defer front.Close()
	front.SetTimeout(2 * time.Second)
	if err := front.Connect(maddr); err != nil {
		t.Fatal(err)
	}

	x := fabricInput(2)
	wantProbs, wantWinners, err := master.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	gotProbs, gotWinners, err := front.InferContext(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	// The input and reply each cross the wire as float32, so the remote
	// answer matches direct inference to float32 precision, not bit-exactly.
	for i := range wantProbs.Data {
		if math.Abs(gotProbs.Data[i]-wantProbs.Data[i]) > 1e-5 {
			t.Fatalf("fabric probs diverge at %d: %v vs %v", i, gotProbs.Data[i], wantProbs.Data[i])
		}
	}
	for i := range wantWinners {
		if gotWinners[i] != wantWinners[i] {
			t.Fatalf("fabric winners diverge at %d: %d vs %d", i, gotWinners[i], wantWinners[i])
		}
	}

	probs, winners, live, total, err := front.InferQuorumContext(context.Background(), x, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if live != 2 || total != 2 {
		t.Fatalf("quorum live=%d total=%d, want 2/2", live, total)
	}
	if probs.Shape[0] != 2 || len(winners) != 2 {
		t.Fatalf("quorum result shape %v / %d winners", probs.Shape, len(winners))
	}

	// An expired caller deadline is the caller's error: no failover, no
	// strike, and the link survives for the next request on it.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := front.InferContext(ctx, x); err == nil {
		t.Fatal("expired deadline succeeded")
	}
	if _, _, err := front.InferContext(context.Background(), x); err != nil {
		t.Fatalf("link did not survive a caller abort: %v", err)
	}
	h := front.Health()[0]
	if h.Failures != 0 || h.Redials != 0 || h.State != PeerHealthy {
		t.Fatalf("front's master after the run: %+v, want healthy on its first link", h)
	}
	reg := front.Metrics()
	if got, errs := reg.Counter("fabric.requests").Value(), reg.Counter("fabric.errors").Value(); got != 3 || errs != 0 {
		t.Fatalf("fabric.requests = %d, fabric.errors = %d; want 3 and none (an expired request is not sent)", got, errs)
	}
}

func TestModelPushHotSwapOverWire(t *testing.T) {
	worker := NewWorker(buildFabricNet(t, 1), 1)
	waddr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	install(t, worker.Swap, Model{Version: "vA"})

	master := NewMaster(buildFabricNet(t, 2), 3)
	defer master.Close()
	if err := master.Connect(waddr); err != nil {
		t.Fatal(err)
	}
	srv := NewNode(RoleMaster, master, 7)
	install(t, master.SetLocal, Model{Version: "vA"})
	swapCh := make(chan string, 1)
	srv.Cutover = func(next Model) error {
		err := master.SetLocal(next)
		swapCh <- next.Version
		return err
	}
	maddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := fabricInput(2)
	before, _, err := master.Infer(x)
	if err != nil {
		t.Fatal(err)
	}

	// Push new weights to the worker, then the master — the documented
	// rollout ordering (gateway cutover last, via the onSwap hook).
	newNet := buildFabricNet(t, 99)
	if err := PushModel(waddr, "vB", fabricSpec, newNet, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := worker.Model().Version; got != "vB" {
		t.Fatalf("worker version %q after push, want vB", got)
	}
	if err := PushModel(maddr, "vB", fabricSpec, newNet, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-swapCh:
		if v != "vB" {
			t.Fatalf("cutover saw %q, want vB", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cutover hook never ran")
	}
	if got, local := srv.Member().Version, master.Local().Version; got != "vB" || local != "vB" {
		t.Fatalf("after the push the server announces %q and the master pins %q, want vB for both", got, local)
	}

	after, _, err := master.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("hot swap did not change the served model")
	}
	if master.Metrics().Counter("model.swaps").Value() != 1 {
		t.Fatalf("model.swaps = %d, want 1", master.Metrics().Counter("model.swaps").Value())
	}
}

func TestAnnounceGossipSpreadsMasters(t *testing.T) {
	// Two master servers; B announces to A, then a gateway bootstrapping
	// against A alone must discover B through the gossip sample.
	ma := NewMaster(buildFabricNet(t, 2), 3)
	defer ma.Close()
	srvA := NewNode(RoleMaster, ma, 1)
	addrA, err := srvA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()

	mb := NewMaster(buildFabricNet(t, 3), 3)
	defer mb.Close()
	srvB := NewNode(RoleMaster, mb, 2)
	if _, err := srvB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	if _, err := Announce(addrA, srvB.Member(), srvB.Roster(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// B learned A from the exchange (anti-entropy runs both ways; the
	// gossip sample may echo B itself back — harmless).
	foundA := false
	for _, a := range srvB.Roster().Masters() {
		if a == addrA {
			foundA = true
		}
	}
	if !foundA {
		t.Fatalf("B's roster after announce: %v, want %s present", srvB.Roster().Masters(), addrA)
	}

	roster := NewRoster()
	self := Member{Role: RoleGateway, ID: 9}
	if _, err := Announce(addrA, self, roster, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	masters := roster.Masters()
	if len(masters) != 2 {
		t.Fatalf("gateway discovered %v masters, want both via gossip", masters)
	}

	// Expiry ages out members that stop announcing.
	if n := roster.Expire(0); n != len(masters) {
		t.Fatalf("Expire(0) dropped %d, want %d", n, len(masters))
	}
	if roster.Len() != 0 {
		t.Fatalf("roster still holds %d entries after expiry", roster.Len())
	}
}
