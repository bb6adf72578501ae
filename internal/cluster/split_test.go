package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
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
		t.Fatal("local fit never fed")
	}
}

// TestSplitPlannerLearnsFromWholeQueries: the planner reads each peer's
// cost estimate, which ordinary broadcast queries feed — after a master has
// served only those, its plan report shows the peer measured, and the first
// auto query is a ranked plan, not an explore probe.
func TestSplitPlannerLearnsFromWholeQueries(t *testing.T) {
	snap, x := buildSplitSnapshot(t, nn.DigitsBaseline(64, 10), 48, 2)
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
	if err := m.EnableSplit(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Do(context.Background(), Request{X: x}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	rep := m.SplitPlanReport(2)
	if rep == nil || len(rep.Peers) != 1 || !rep.Peers[0].Measured || rep.Peers[0].Addr != addr {
		t.Fatalf("plan report after whole queries = %+v, want %s measured", rep, addr)
	}
	if _, err := splitDo(m, x, SplitAuto); err != nil {
		t.Fatal(err)
	}
	if got := m.Metrics().Counter("split.explore").Value(); got != 0 {
		t.Fatalf("split.explore = %d: the planner probed a peer whole queries had measured", got)
	}
}

// TestSplitPlannerProbesAStaleEstimate: the planner probes through the
// exploration rule (cost.go). Queries sparser than costHorizon do not make a
// measured peer's estimate stale by age alone, so none of them probes; once
// the estimate is older than the horizon and a window of queries passed the
// peer over, reading the plan report claims nothing, the next auto query
// probes the peer, and the probe's sample makes it fresh again.
func TestSplitPlannerProbesAStaleEstimate(t *testing.T) {
	snap, x := buildSplitSnapshot(t, nn.DigitsBaseline(64, 10), 49, 2)
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
	if err := m.EnableSplit(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Do(context.Background(), Request{X: x}); err != nil {
		t.Fatal(err)
	}
	explored := m.Metrics().Counter("split.explore")
	auto := func(want int64) {
		t.Helper()
		if _, err := splitDo(m, x, SplitAuto); err != nil {
			t.Fatal(err)
		}
		if got := explored.Value(); got != want {
			t.Fatalf("split.explore = %d, want %d", got, want)
		}
	}
	for range 4 {
		time.Sleep(costHorizon + 10*time.Millisecond)
		auto(0)
	}
	stamp := &m.peers[0].cost.stamp
	stamp.at.Store(time.Now().Add(-costHorizon).UnixNano()) // a horizon with no round trip
	stamp.passed.Store(costWindow)                          // and a window of queries elsewhere
	if rep := m.SplitPlanReport(2); rep == nil || !rep.Peers[0].Measured {
		t.Fatalf("plan report = %+v, want the peer measured", rep)
	}
	auto(1)
	auto(1)
}

// TestSplitWireBytesMatchEncoding pins the planner's byte model — the
// round trip EnableSplit installs, sized for the served label's pin — against
// the frames of a real tail and its answer: each frame's header and body
// behind the transport's length and type, as link.attempt measures them.
func TestSplitWireBytesMatchEncoding(t *testing.T) {
	m := NewMaster(tinyExpert(t, 1), 10)
	defer m.Close()
	if err := m.SetLocal(Model{Version: "v1.2"}); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableSplit(0); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	req := requestPayload(requestHeader{pin: "v1.2"}, encodeRequest(Request{X: rng.Randn(4, 33), Policy: Policy{Gather: Own, Split: SplitAt(5)}}))
	rep := replyPayload(replyHeader{}, encodeReply(Reply{Probs: rng.RandUniform(0, 1, 4, 10), Entropy: make([]float64, 4), Winners: make([]int, 4)}, true))
	if got, want := m.splitOpts.WireBytes(4, 33), transport.FrameWireSize(len(req))+transport.FrameWireSize(len(rep)); got != want {
		t.Fatalf("planner prices a tail round trip at %d bytes, its frames are %d", got, want)
	}
}
