package cluster

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Tests for the one-Model-per-node invariant (model.go): the label a request
// is checked against, the weights it runs on and the label a master pins its
// split tails to are read from one value.

// install publishes next through a node's one writer (Node.Swap,
// Master.SetLocal) and fails the test on a refusal.
func install(t *testing.T, set func(Model) error, next Model) {
	t.Helper()
	if err := set(next); err != nil {
		t.Fatal(err)
	}
}

// TestServeRequestChecksAndServesOneModel lands a swap between the pin check
// and the forward pass — deterministically: the handler itself swaps the node
// to vB before it looks at the model it was handed. That must still be the
// model whose label the pin passed against.
func TestServeRequestChecksAndServesOneModel(t *testing.T) {
	n := NewWorkerModel(Model{Snapshot: nn.MustSnapshot(tinyExpert(t, 60)), Version: "vA"}, 1)
	vA := n.Model()
	var served *Model
	k := func(n *Node, _ context.Context, m *Model, _ []byte) (byte, []byte, time.Duration) {
		install(t, n.Swap, Model{Version: "vB"})
		served = m
		return MsgReply, nil, 0
	}
	if typ, _, _ := n.serveRequest(k, requestHeader{id: 1, pin: "vA"}, time.Now(), nil); typ != MsgReply || served != vA {
		t.Fatalf("request pinned to vA, checked against vA: reply type %d, handler ran on %+v", typ, served)
	}
	// The swap has landed: the same pin is now refused, before any handler.
	served = nil
	typ, text, _ := n.serveRequest(k, requestHeader{id: 2, pin: "vA"}, time.Now(), nil)
	if err := workerError(string(text)); typ != MsgErrorMux || !errors.Is(err, ErrSplitVersionMismatch) || served != nil {
		t.Fatalf("request pinned to vA on a node serving vB: reply type %d %q, handler ran on %+v", typ, text, served)
	}
}

// TestSwapVsPinHammer races pinned split tails against Swap flipping a
// worker between vA and vB (same architecture, different seeds). A tail
// pinned to a version either runs on that version's weights — bit-identical
// to its local forward — or is refused with the version-mismatch verdict;
// it is never finished on the other version's weights.
func TestSwapVsPinHammer(t *testing.T) {
	const at = 1
	x := fabricInput(2)
	type version struct {
		model Model
		body  []byte // the split request a head on this version sends
		want  Reply
	}
	versions := make([]version, 2)
	for i, label := range []string{"vA", "vB"} {
		snap := nn.MustSnapshot(tinyExpert(t, int64(70+i)))
		probs, ent := snap.PredictWithEntropy(x)
		versions[i] = version{
			model: Model{Snapshot: snap, Version: label},
			body:  encodeRequest(Request{X: snap.ForwardRange(x, 0, at), Policy: Policy{Gather: Own, Split: SplitAt(at)}}),
			want:  Reply{Probs: probs, Entropy: ent.Data},
		}
	}
	w := NewWorkerModel(versions[0].model, 1)
	defer w.Close()

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				if err := w.Swap(versions[i%2].model); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			served := 0
			for i := 0; i < 2000 || served == 0; i++ {
				v := versions[(c+i)%2]
				typ, reply, _ := w.serveRequest(w.kinds[MsgDo], requestHeader{id: uint32(i), pin: v.model.Version}, time.Now(), v.body)
				if typ == MsgErrorMux {
					if !errors.Is(workerError(string(reply)), ErrSplitVersionMismatch) {
						t.Errorf("tail pinned to %s refused with %q, want the version-mismatch verdict", v.model.Version, reply)
						return
					}
					continue
				}
				got, err := decodeReply(reply, true, 2, 3)
				if err != nil {
					t.Error(err)
					return
				}
				served++
				if !bitEqual(got.Probs.Data, v.want.Probs.Data) || !bitEqual(got.Entropy, v.want.Entropy) {
					t.Errorf("tail pinned to %s was finished on other weights: probs %v, that version's local forward gives %v", v.model.Version, got.Probs.Data, v.want.Probs.Data)
					return
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	swapper.Wait()
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPushedMasterPinsSplitTailsToTheNewLabel: a wire push to a master Node
// must move the label its master pins split tails to along with the weights
// that compute the heads. The worker is already on vB; once the master is
// pushed vB too, the next tail runs remotely — no version fallback.
func TestPushedMasterPinsSplitTailsToTheNewLabel(t *testing.T) {
	netB := tinyExpert(t, 81)
	snapB := nn.MustSnapshot(netB)
	w := NewWorkerModel(Model{Snapshot: snapB, Version: "vB"}, 1)
	waddr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	m := NewMaster(tinyExpert(t, 80), 3)
	defer m.Close()
	install(t, m.SetLocal, Model{Version: "vA"})
	if err := m.Connect(waddr); err != nil {
		t.Fatal(err)
	}
	srv := NewNode(RoleMaster, m, 2)
	maddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := fabricInput(2)
	if err := PushModel(maddr, "vB", tinySpec, netB, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := splitDo(m, x, SplitAt(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != "" || res.Peer != waddr {
		t.Fatalf("after the push: fallback %q peer %q, want a clean remote tail via %q", res.Fallback, res.Peer, waddr)
	}
	wantProbs, wantEnt := snapB.PredictWithEntropy(x)
	assertBitIdentical(t, "tail pinned vB", res.Probs, wantProbs, res.Entropy, wantEnt.Data)
	if got := m.Metrics().Counter("split.fallback.version").Value(); got != 0 {
		t.Fatalf("split.fallback.version = %d, want 0", got)
	}
}

// TestPublishIsOneStore pins the writer's contract: a label-only model keeps
// the weights, weights and label move together, a coordinator can gain an
// expert, and a refused model leaves the served one untouched.
func TestPublishIsOneStore(t *testing.T) {
	m := NewMaster(nil, 3)
	defer m.Close()
	install(t, m.SetLocal, Model{Version: "hash"})
	if got := m.Local(); got.Snapshot != nil || got.Version != "hash" {
		t.Fatalf("labelled coordinator serves %+v", got)
	}
	snap := nn.MustSnapshot(buildFabricNet(t, 90))
	install(t, m.SetLocal, Model{Snapshot: snap, Version: "v1"})
	install(t, m.SetLocal, Model{Version: "v2"})
	if got := m.Local(); got.Snapshot != snap || got.Version != "v2" {
		t.Fatalf("re-label changed the weights or kept the label: %+v", got)
	}
	before := m.Local()
	if err := m.SetLocal(Model{Snapshot: nn.MustSnapshot(tinyExpert(t, 91)), Version: "v3"}); err != nil {
		t.Fatalf("same-width weights refused: %v", err)
	}
	if m.Local() == before || m.Metrics().Counter("model.swaps").Value() != 1 {
		t.Fatalf("weights swap not applied or not counted once (model.swaps = %d)", m.Metrics().Counter("model.swaps").Value())
	}
	wide := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 4, Width: 4, Layers: 1, Classes: 5}}
	net, err := wide.Build(tensor.NewRNG(92))
	if err != nil {
		t.Fatal(err)
	}
	before = m.Local()
	if err := m.SetLocal(Model{Snapshot: nn.MustSnapshot(net), Version: "v4"}); err == nil || m.Local() != before {
		t.Fatalf("5-class weights on a 3-class master: err %v, served model replaced: %v", err, m.Local() != before)
	}
}
