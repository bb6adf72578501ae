package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// splitZooSpecs mirrors the nn package's range-test zoo: every model family
// the paper evaluates, at test-scale geometry.
func splitZooSpecs(t *testing.T) []nn.Spec {
	t.Helper()
	specs := []nn.Spec{nn.DigitsBaseline(64, 10)}
	for _, k := range []int{2, 4} {
		s, err := nn.DigitsExpert(k, 64, 10)
		if err != nil {
			t.Fatalf("DigitsExpert(%d): %v", k, err)
		}
		specs = append(specs, s)
	}
	specs = append(specs, nn.ObjectsBaseline(3, 8, 8, 10))
	for _, k := range []int{2, 4} {
		s, err := nn.ObjectsExpert(k, 3, 8, 8, 10)
		if err != nil {
			t.Fatalf("ObjectsExpert(%d): %v", k, err)
		}
		specs = append(specs, s)
	}
	return specs
}

func splitSpecInput(s nn.Spec) int {
	if s.MLP != nil {
		return s.MLP.Input
	}
	return s.Shake.InC * s.Shake.InH * s.Shake.InW
}

// buildSplitSnapshot compiles one zoo spec with populated batch-norm
// statistics and returns the snapshot plus a matching input batch.
func buildSplitSnapshot(t *testing.T, spec nn.Spec, seed int64, batch int) (*nn.Snapshot, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatalf("build %s: %v", spec.Label(), err)
	}
	x := rng.Randn(batch, splitSpecInput(spec))
	net.Forward(x, true) // populate batch-norm running statistics
	return nn.MustSnapshot(net), x
}

// splitDo is Do under a split policy with no deadline.
func splitDo(m *Master, x *tensor.Tensor, at SplitPoint) (Reply, error) {
	return m.Do(context.Background(), Request{X: x, Policy: Policy{Split: at}})
}

func assertBitIdentical(t *testing.T, label string, got, want *tensor.Tensor, gotEnt, wantEnt []float64) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: probs size %d != %d", label, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: probs[%d] differ: %g vs %g", label, i, got.Data[i], want.Data[i])
		}
	}
	if len(gotEnt) != len(wantEnt) {
		t.Fatalf("%s: entropy size %d != %d", label, len(gotEnt), len(wantEnt))
	}
	for i := range gotEnt {
		if math.Float64bits(gotEnt[i]) != math.Float64bits(wantEnt[i]) {
			t.Fatalf("%s: entropy[%d] differ: %g vs %g", label, i, gotEnt[i], wantEnt[i])
		}
	}
}

// TestSplitBitExactEveryZooModel pins the acceptance property: head
// local + tail remote over real TCP is bit-identical to the full local
// forward, for every zoo model. The first model sweeps every boundary; the
// rest check the endpoints and the midpoint (the full per-boundary sweep
// lives in the nn package's range test — here the wire is under test).
func TestSplitBitExactEveryZooModel(t *testing.T) {
	for i, spec := range splitZooSpecs(t) {
		snap, x := buildSplitSnapshot(t, spec, int64(20+i), 3)
		w := NewWorkerModel(Model{Snapshot: snap}, 1)
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := NewMaster(nil, 10)
		install(t, m.SetLocal, Model{Snapshot: snap})
		if err := m.Connect(addr); err != nil {
			t.Fatal(err)
		}

		wantProbs, wantEnt := snap.PredictWithEntropy(x)
		n := snap.Steps()
		boundaries := []int{0, n / 2, n}
		if i == 0 {
			boundaries = boundaries[:0]
			for s := 0; s <= n; s++ {
				boundaries = append(boundaries, s)
			}
		}
		for _, s := range boundaries {
			res, err := splitDo(m, x, SplitAt(s))
			if err != nil {
				t.Fatalf("%s split %d: %v", spec.Label(), s, err)
			}
			if res.Fallback != "" {
				t.Fatalf("%s split %d: unexpected fallback %q", spec.Label(), s, res.Fallback)
			}
			if res.Split != s {
				t.Fatalf("%s: executed split %d, asked %d", spec.Label(), res.Split, s)
			}
			if s < n && res.Peer != addr {
				t.Fatalf("%s split %d: peer %q, want %q", spec.Label(), s, res.Peer, addr)
			}
			if s == n && res.Peer != "" {
				t.Fatalf("%s split %d: whole-local answer credited to peer %q", spec.Label(), s, res.Peer)
			}
			assertBitIdentical(t, spec.Label(), res.Probs, wantProbs, res.Entropy, wantEnt.Data)
		}
		m.Close()
		w.Close()
	}
}

// TestSplitVersionMismatchFallsBackWholeQuery pins the mid-rollout
// degradation: a peer serving a different model version refuses the tail
// and the master re-sends the whole query instead — a valid whole-model
// answer, never a wrong-model tail.
func TestSplitVersionMismatchFallsBackWholeQuery(t *testing.T) {
	snap, x := buildSplitSnapshot(t, nn.DigitsBaseline(64, 10), 31, 2)
	w := NewWorkerModel(Model{Snapshot: snap, Version: "v2"}, 1)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m := NewMaster(nil, 10)
	defer m.Close()
	install(t, m.SetLocal, Model{Snapshot: snap, Version: "v1"})
	if err := m.Connect(addr); err != nil {
		t.Fatal(err)
	}

	res, err := splitDo(m, x, SplitAt(snap.Steps()/2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != "version" {
		t.Fatalf("fallback = %q, want version", res.Fallback)
	}
	if res.Peer != addr {
		t.Fatalf("whole-query fallback peer = %q, want %q", res.Peer, addr)
	}
	// The whole-query path quantizes the input to float32, so the answer is
	// close to — not bitwise equal to — the local forward.
	wantProbs, _ := snap.PredictWithEntropy(x)
	if !res.Probs.AllClose(wantProbs, 1e-4) {
		t.Fatal("whole-query fallback answer diverged from the model")
	}
	if m.Metrics().Counter("split.fallback.version").Value() != 1 {
		t.Fatal("version fallback not counted")
	}
}

// TestSplitTransportFaultFinishesLocally pins the fault degradation:
// the peer dying mid-rollout costs a local tail, never a failed query, and
// the answer stays bit-identical.
func TestSplitTransportFaultFinishesLocally(t *testing.T) {
	snap, x := buildSplitSnapshot(t, nn.DigitsBaseline(64, 10), 37, 2)
	w := NewWorkerModel(Model{Snapshot: snap}, 1)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaster(nil, 10)
	defer m.Close()
	install(t, m.SetLocal, Model{Snapshot: snap})
	if err := m.Connect(addr); err != nil {
		t.Fatal(err)
	}
	w.Close() // peer dies after the dial: the split round trip must fault

	res, err := splitDo(m, x, SplitAt(snap.Steps()/2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != "transport" {
		t.Fatalf("fallback = %q, want transport", res.Fallback)
	}
	wantProbs, wantEnt := snap.PredictWithEntropy(x)
	assertBitIdentical(t, "transport fallback", res.Probs, wantProbs, res.Entropy, wantEnt.Data)
}

// TestSplitNoPeerRunsLocal pins the loneliest degradation: no peers at
// all means a plain local forward, flagged as such.
func TestSplitNoPeerRunsLocal(t *testing.T) {
	snap, x := buildSplitSnapshot(t, nn.DigitsBaseline(64, 10), 41, 2)
	m := NewMaster(nil, 10)
	defer m.Close()
	install(t, m.SetLocal, Model{Snapshot: snap})

	res, err := splitDo(m, x, SplitAt(snap.Steps()/2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != "no_peer" {
		t.Fatalf("fallback = %q, want no_peer", res.Fallback)
	}
	wantProbs, wantEnt := snap.PredictWithEntropy(x)
	assertBitIdentical(t, "no-peer fallback", res.Probs, wantProbs, res.Entropy, wantEnt.Data)

	// A pure coordinator cannot split at all.
	bare := NewMaster(nil, 10)
	defer bare.Close()
	if _, err := splitDo(bare, x, SplitAt(0)); err == nil {
		t.Fatal("split without a local expert succeeded")
	}
}

// TestMasterServerServesSplitFrames pins that a master's node answers a
// split tail ({Own, SplitAt(k)}) from its master's local expert — a master
// can offload tails to another master, not just to workers.
func TestMasterServerServesSplitFrames(t *testing.T) {
	snap, x := buildSplitSnapshot(t, nn.DigitsBaseline(64, 10), 43, 2)
	remote := NewMaster(nil, 10)
	defer remote.Close()
	install(t, remote.SetLocal, Model{Snapshot: snap})
	srv := NewNode(RoleMaster, remote, 2)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := NewMaster(nil, 10)
	defer m.Close()
	install(t, m.SetLocal, Model{Snapshot: snap})
	if err := m.Connect(addr); err != nil {
		t.Fatal(err)
	}
	s := snap.Steps() / 2
	res, err := splitDo(m, x, SplitAt(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != "" || res.Peer != addr {
		t.Fatalf("fallback %q peer %q, want clean remote tail via %q", res.Fallback, res.Peer, addr)
	}
	wantProbs, wantEnt := snap.PredictWithEntropy(x)
	assertBitIdentical(t, "master-served tail", res.Probs, wantProbs, res.Entropy, wantEnt.Data)
}

// TestSplitAutoPlans drives the auto path end to end: EnableSplit,
// several queries (the first is the planner's probe of the unmeasured
// peer), every answer bit-identical, and the plan report becomes available
// with measured peer costs.
func TestSplitAutoPlans(t *testing.T) {
	snap, x := buildSplitSnapshot(t, nn.DigitsBaseline(64, 10), 47, 2)
	w := NewWorkerModel(Model{Snapshot: snap}, 1)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m := NewMaster(nil, 10)
	defer m.Close()
	install(t, m.SetLocal, Model{Snapshot: snap})
	if err := m.Connect(addr); err != nil {
		t.Fatal(err)
	}

	if _, err := splitDo(m, x, SplitAuto); err == nil {
		t.Fatal("auto split before EnableSplit succeeded")
	}
	if err := m.EnableSplit(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	wantProbs, wantEnt := snap.PredictWithEntropy(x)
	for i := 0; i < 5; i++ {
		res, err := splitDo(m, x, SplitAuto)
		if err != nil {
			t.Fatalf("auto query %d: %v", i, err)
		}
		if res.Fallback != "" {
			t.Fatalf("auto query %d: fallback %q", i, res.Fallback)
		}
		assertBitIdentical(t, "auto", res.Probs, wantProbs, res.Entropy, wantEnt.Data)
	}
	if m.Metrics().Counter("split.explore").Value() == 0 {
		t.Fatal("unmeasured peer was never probed")
	}
	rep := m.SplitPlanReport(2)
	if rep == nil {
		t.Fatal("no plan report after EnableSplit")
	}
	if len(rep.Peers) != 1 || !rep.Peers[0].Measured {
		t.Fatalf("plan report peers = %+v, want one measured peer", rep.Peers)
	}
	if !rep.LocalReady {
		t.Fatal("local estimator never fed")
	}
}

// TestSplitWireBytesMatchEncoding pins the planner's byte model — the
// codec's one size function under a tail's policy — against the real
// encoding of a tail and its answer.
func TestSplitWireBytesMatchEncoding(t *testing.T) {
	rng := tensor.NewRNG(3)
	act := rng.Randn(4, 33)
	// The request is priced as its version pin (u16 length + bytes, carried
	// by the frame header) plus its body.
	req := encodeRequest(Request{X: act, Policy: Policy{Gather: Own, Split: SplitAt(5)}})
	rep := encodeReply(Reply{Probs: rng.RandUniform(0, 1, 4, 10), Entropy: make([]float64, 4), Winners: make([]int, 4)}, true)
	if got, want := doWireBytes(splitTail, len("v1.2"), 4, 33, 10), 2+len("v1.2")+len(req)+len(rep); got != want {
		t.Fatalf("doWireBytes = %d, encoded = %d", got, want)
	}
}
