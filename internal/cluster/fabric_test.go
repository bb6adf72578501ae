package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Fabric tests: membership gossip, versioned model push, and the
// Node/RemoteMaster wire pair. All run under -race via the full
// test suite.

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

func TestFabricCodecRoundTrip(t *testing.T) {
	x := fabricInput(3)
	body := encodeFabricRequest(Request{X: x, Policy: Policy{Gather: Quorum, Soft: 42}})
	req, err := decodeFabricRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if req.Policy != (Policy{Gather: Quorum, Soft: 42}) {
		t.Fatalf("policy round trip: %+v", req.Policy)
	}
	got := req.X
	// Tensors ride the wire as float32 (see transport.EncodeTensor).
	for i := range x.Data {
		if got.Data[i] != float64(float32(x.Data[i])) {
			t.Fatalf("tensor element %d diverged", i)
		}
	}

	probs := tensor.New(2, 3)
	for i := range probs.Data {
		probs.Data[i] = float64(i) / 6
	}
	res := encodeFabricResult(Reply{Probs: probs, Winners: []int{1, 0}, Live: 2, Total: 3})
	rep, err := decodeFabricResult(res, 2)
	if err != nil {
		t.Fatal(err)
	}
	gp, winners, live, total := rep.Probs, rep.Winners, rep.Live, rep.Total
	if live != 2 || total != 3 || winners[0] != 1 || winners[1] != 0 {
		t.Fatalf("result round trip: live=%d total=%d winners=%v", live, total, winners)
	}
	for i := range probs.Data {
		if gp.Data[i] != float64(float32(probs.Data[i])) {
			t.Fatalf("probs element %d diverged", i)
		}
	}

	if _, err := decodeFabricRequest([]byte{9}); err == nil {
		t.Fatal("truncated fabric request accepted")
	}
	body[0] = byte(Quorum) + 1
	if _, err := decodeFabricRequest(body); err == nil {
		t.Fatal("fabric request with an unknown gather rule accepted")
	}
	if _, err := decodeFabricResult([]byte{0, 1}, 2); err == nil {
		t.Fatal("truncated fabric result accepted")
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
	// fabric; a RemoteMaster client must see the same answers as direct
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

	rm := NewRemoteMaster(maddr, 2*time.Second)
	defer rm.Close()

	x := fabricInput(2)
	wantProbs, wantWinners, err := master.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	gotProbs, gotWinners, err := rm.InferContext(context.Background(), x)
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

	probs, winners, live, total, err := rm.InferQuorumContext(context.Background(), x, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if live != 2 || total != 2 {
		t.Fatalf("quorum live=%d total=%d, want 2/2", live, total)
	}
	if probs.Shape[0] != 2 || len(winners) != 2 {
		t.Fatalf("quorum result shape %v / %d winners", probs.Shape, len(winners))
	}

	// A second strict call pipelines on the same link.
	if _, _, err := rm.InferContext(context.Background(), x); err != nil {
		t.Fatal(err)
	}

	// An expired caller deadline is the caller's error, and the link
	// survives for the next request.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := rm.InferContext(ctx, x); err == nil {
		t.Fatal("expired deadline succeeded")
	}
	if _, _, err := rm.InferContext(context.Background(), x); err != nil {
		t.Fatalf("link did not survive a caller abort: %v", err)
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
