package cluster

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/moe"
	"github.com/teamnet/teamnet/internal/mpi"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// trainSmallTeam trains a 2-expert TeamNet quickly for runtime tests.
func trainSmallTeam(t *testing.T) (*core.Team, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Digits(dataset.DigitsConfig{N: 300, H: 12, W: 12, Seed: 3})
	cfg := core.Config{
		K: 2,
		ExpertSpec: nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{
			Label: "MLP-2", Input: 144, Width: 32, Layers: 2, Classes: 10,
		}},
		Epochs:    10,
		BatchSize: 50,
		ExpertLR:  0.05,
		Seed:      9,
	}
	tr, err := core.NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	team, _ := tr.Train(ds)
	return team, ds
}

func TestResultCodecRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	sent := Reply{Probs: rng.RandUniform(0, 1, 3, 5), Entropy: []float64{0.1, 0.9, 0.5}, Winners: make([]int, 3), Live: 1, Total: 1}
	got, err := decodeReply(encodeReply(sent, false), false, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Probs.AllClose(sent.Probs, 1e-5) {
		t.Fatal("probs corrupted")
	}
	if !bitEqual(got.Entropy, sent.Entropy) {
		t.Fatal("entropy corrupted (must be exact float64)")
	}
}

func TestResultCodecRejectsMismatch(t *testing.T) {
	rng := tensor.NewRNG(2)
	short := Reply{Probs: rng.RandUniform(0, 1, 3, 5), Entropy: []float64{0.1}, Winners: make([]int, 3)}
	if _, err := decodeReply(encodeReply(short, false), false, 3, 5); err == nil {
		t.Fatal("row/entropy mismatch accepted")
	}
	if _, err := decodeReply([]byte{1, 2}, false, 3, 5); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestWireByteHelpersMatchEncoding pins the codec's one size function
// against what it encodes, for a whole query and for a split tail.
func TestWireByteHelpersMatchEncoding(t *testing.T) {
	rng := tensor.NewRNG(3)
	for _, p := range []Policy{{Gather: Own}, {Gather: Own, Split: SplitAt(2)}} {
		x := rng.Randn(4, 144)
		rep := Reply{Probs: rng.RandUniform(0, 1, 4, 10), Entropy: make([]float64, 4), Winners: make([]int, 4)}
		want := 2 + len("v1.2") + len(encodeRequest(Request{X: x, Policy: p})) + len(encodeReply(rep, p.wide()))
		if got := doWireBytes(p, len("v1.2"), 4, 144, 10); got != want {
			t.Fatalf("%+v: doWireBytes = %d, encoded = %d", p, got, want)
		}
	}
}

func TestMasterWorkerEndToEnd(t *testing.T) {
	team, ds := trainSmallTeam(t)

	// Expert 0 lives on the master; expert 1 on a TCP worker.
	worker := NewWorker(team.Experts[1], 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()

	master := NewMaster(team.Experts[0], 10)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if master.Peers() != 1 {
		t.Fatalf("peers = %d", master.Peers())
	}
	if err := master.Ping(); err != nil {
		t.Fatal(err)
	}

	x := ds.X.SelectRows([]int{0, 1, 2, 3, 4, 5, 6, 7})
	gotProbs, gotWinners, err := master.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	// The distributed protocol must agree with in-process Team.Predict
	// (float32 wire quantization allowed).
	wantProbs, wantWinners := team.Predict(x)
	if !gotProbs.AllClose(wantProbs, 1e-4) {
		t.Fatal("distributed probabilities diverge from in-process inference")
	}
	for i := range wantWinners {
		if gotWinners[i] != wantWinners[i] {
			t.Fatalf("sample %d: distributed winner %d != local %d", i, gotWinners[i], wantWinners[i])
		}
	}
}

func TestMasterAccuracyMatchesTeam(t *testing.T) {
	team, ds := trainSmallTeam(t)
	worker := NewWorker(team.Experts[1], 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	master := NewMaster(team.Experts[0], 10)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	test := ds.Subset([]int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	got, err := master.Accuracy(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	want := team.Accuracy(test.X, test.Y)
	if got < want-0.101 || got > want+0.101 {
		t.Fatalf("distributed accuracy %v vs local %v", got, want)
	}
}

func TestMasterQuadroWorkers(t *testing.T) {
	// 4 experts on 4 separate workers, master as pure coordinator.
	ds := dataset.Digits(dataset.DigitsConfig{N: 200, H: 12, W: 12, Seed: 5})
	cfg := core.Config{
		K: 4,
		ExpertSpec: nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{
			Label: "MLP-2", Input: 144, Width: 16, Layers: 2, Classes: 10,
		}},
		Epochs: 3, BatchSize: 50, Seed: 11,
	}
	tr, err := core.NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	team, _ := tr.Train(ds)

	var workers []*Node
	master := NewMaster(nil, 10)
	defer master.Close()
	for i, e := range team.Experts {
		w := NewWorker(e, i)
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
		for _, w := range workers {
			w.Close()
		}
	}()

	x := ds.X.SelectRows([]int{0, 1, 2, 3})
	probs, winners, err := master.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantProbs, wantWinners := team.Predict(x)
	if !probs.AllClose(wantProbs, 1e-4) {
		t.Fatal("quadro distributed inference diverges")
	}
	for i := range winners {
		if winners[i] != wantWinners[i] {
			t.Fatal("quadro winner mismatch")
		}
	}
}

func TestMasterNoNodes(t *testing.T) {
	master := NewMaster(nil, 10)
	if _, _, err := master.Infer(tensor.New(1, 4)); err == nil {
		t.Fatal("inference with no nodes succeeded")
	}
}

func TestMasterConcurrentInfers(t *testing.T) {
	team, ds := trainSmallTeam(t)
	worker := NewWorker(team.Experts[1], 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	master := NewMaster(team.Experts[0], 10)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := ds.X.SelectRows([]int{i, i + 1})
			if _, _, err := master.Infer(x); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestWorkerSnapshotConcurrentCorrectness(t *testing.T) {
	team, ds := trainSmallTeam(t)
	worker := NewWorker(team.Experts[1], 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()

	// Several masters hammer the worker's shared snapshot concurrently;
	// every answer must match the in-process expert (modulo wire float32).
	want := team.Experts[1].Predict(ds.X.SelectRows([]int{0}))
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for m := 0; m < 4; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			master := NewMaster(nil, 10)
			defer master.Close()
			if err := master.Connect(addr); err != nil {
				errs <- err
				return
			}
			for q := 0; q < 3; q++ {
				probs, _, err := master.Infer(ds.X.SelectRows([]int{0}))
				if err != nil {
					errs <- err
					return
				}
				if !probs.AllClose(want, 1e-4) {
					errs <- fmt.Errorf("snapshot worker answered differently")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNewWorkerNilExpertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil expert did not panic")
		}
	}()
	NewWorker(nil, 1)
}

func TestCloneExpertOutOfRange(t *testing.T) {
	team, _ := trainSmallTeam(t)
	if _, err := team.CloneExpert(5, 1); err == nil {
		t.Fatal("out-of-range expert clone accepted")
	}
}

func TestElection(t *testing.T) {
	rng := tensor.NewRNG(7)
	spec := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 4, Width: 4, Layers: 1, Classes: 2}}
	build := func() *nn.Network {
		n, err := spec.Build(rng)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	w1 := NewWorker(build(), 1)
	w2 := NewWorker(build(), 2)
	a1, err := w1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	a2, err := w2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	// Node 3 (highest id) must win against 1 and 2.
	isLeader, leaderID, err := ElectLeader(3, []string{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	if !isLeader || leaderID != 3 {
		t.Fatalf("id 3 should lead: isLeader=%v leaderID=%d", isLeader, leaderID)
	}
	// Node 0 must lose to 2.
	isLeader, leaderID, err = ElectLeader(0, []string{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	if isLeader || leaderID != 2 {
		t.Fatalf("id 0 should lose to 2: isLeader=%v leaderID=%d", isLeader, leaderID)
	}
}

func TestElectionAllPeersDown(t *testing.T) {
	isLeader, leaderID, err := ElectLeader(5, []string{"127.0.0.1:1"}) // closed port
	if err != nil {
		t.Fatal(err)
	}
	if !isLeader || leaderID != 5 {
		t.Fatal("sole survivor must lead")
	}
}

func TestElectionDuplicateID(t *testing.T) {
	rng := tensor.NewRNG(8)
	spec := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 4, Width: 4, Layers: 1, Classes: 2}}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(net, 4)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := ElectLeader(4, []string{addr}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate id not detected: %v", err)
	}
}

// trainSmallMoE trains a small SG-MoE for the runtime tests.
func trainSmallMoE(t *testing.T) (*moe.SGMoE, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Digits(dataset.DigitsConfig{N: 200, H: 12, W: 12, Seed: 13})
	cfg := moe.Config{
		K: 2,
		ExpertSpec: nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{
			Label: "MLP-2", Input: 144, Width: 32, Layers: 2, Classes: 10,
		}},
		Epochs: 3, BatchSize: 50, LR: 0.01, Seed: 17,
	}
	m, err := moe.Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	return m, ds
}

// TestMoERPCEndToEnd runs SG-MoE-G over the one socket stack: every expert
// node is a worker Node, the master gates locally and dispatches on its
// supervised peer links. The mixed answer must match in-process inference,
// and the trace must cross the wire the way TeamNet's does: nothing from an
// untraced master, one trace id from "moe.infer" through "peer <addr>" (split
// into network and compute by the reply header) to the expert node's
// "worker.predict" from a traced one.
func TestMoERPCEndToEnd(t *testing.T) {
	model, ds := trainSmallMoE(t)
	var addrs []string
	var expertTrs []*trace.Tracer
	for i, e := range model.Experts {
		node := NewWorker(e, i)
		tr := trace.New("expert", 0)
		node.SetTracer(tr)
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		addrs = append(addrs, addr)
		expertTrs = append(expertTrs, tr)
	}
	master, err := NewMoEMaster(model, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	x := ds.X.SelectRows([]int{0, 1, 2, 3, 4})
	want := model.Predict(x)
	infer := func() {
		t.Helper()
		got, err := master.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.AllClose(want, 1e-4) {
			t.Fatal("distributed SG-MoE-G diverges from in-process inference")
		}
	}
	infer()
	for i, tr := range expertTrs {
		if tr.Len() != 0 {
			t.Fatalf("expert %d recorded %v for an untraced master's query: a trace parent was sent", i, tr.Snapshot(0))
		}
	}

	masterTr := trace.New("moe-master", 0)
	master.SetTracer(masterTr)
	infer()
	ids := masterTr.TraceIDs(1)
	if len(ids) != 1 {
		t.Fatalf("master recorded %d traces, want 1", len(ids))
	}
	root, children := trace.Span{}, map[uint64][]string{}
	for _, s := range masterTr.Trace(ids[0]) {
		if s.Name == "moe.infer" {
			root = s
		}
		children[s.ParentID] = append(children[s.ParentID], s.Name)
	}
	asked := 0
	for i, tr := range expertTrs {
		peer := "peer " + addrs[i]
		if !slices.Contains(children[root.SpanID], peer) {
			continue // top-k gating sent this expert no rows
		}
		asked++
		for _, s := range masterTr.Trace(ids[0]) {
			if s.Name == peer && (!slices.Contains(children[s.SpanID], "network") || !slices.Contains(children[s.SpanID], "compute")) {
				t.Fatalf("%q has children %v, want the reply header's network/compute split", peer, children[s.SpanID])
			}
		}
		spans := tr.Snapshot(0)
		if len(spans) != 1 || spans[0].Name != "worker.predict" || spans[0].TraceID != ids[0] || spans[0].ParentID != root.SpanID {
			t.Fatalf("expert %d recorded %+v, want one worker.predict under moe.infer %x of trace %x", i, spans, root.SpanID, ids[0])
		}
	}
	if asked == 0 {
		t.Fatalf("no peer span under moe.infer: %s", masterTr.Tree(ids[0]))
	}

	// A mis-shaped tensor (1×3 for a 144-wide expert) costs an expert node
	// one error frame, not its process; the master's links keep answering.
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hostile := requestPayload(requestHeader{id: 1}, ownBody(tensor.NewRNG(18).Randn(1, 3)))
	if typ, text := exchange(t, conn, MsgDo, hostile); typ != MsgErrorMux {
		t.Fatalf("mis-shaped tensor answered type %d %q", typ, text)
	}
	expectServing(t, conn)
	infer()
}

func TestMoEMasterAddrCountMismatch(t *testing.T) {
	model, _ := trainSmallMoE(t)
	if _, err := NewMoEMaster(model, []string{"127.0.0.1:1"}); err == nil {
		t.Fatal("addr/expert count mismatch accepted")
	}
}

func TestMoEMPIEndToEnd(t *testing.T) {
	model, ds := trainSmallMoE(t)
	comms := mpi.NewLocalWorld(3) // rank 0 gate, ranks 1-2 experts

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			workerErrs[e] = MoEMPIWorker(comms[e+1], model.Experts[e])
		}(e)
	}

	master, err := NewMoEMPIMaster(model, comms[0])
	if err != nil {
		t.Fatal(err)
	}
	x := ds.X.SelectRows([]int{0, 1, 2, 3})
	got, err := master.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Predict(x)
	if !got.AllClose(want, 1e-4) {
		t.Fatal("MPI-distributed SG-MoE diverges from in-process inference")
	}
	if err := master.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for e, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", e, err)
		}
	}
	for _, c := range comms {
		c.Close()
	}
}

func TestMoEMPIMasterValidation(t *testing.T) {
	model, _ := trainSmallMoE(t)
	comms := mpi.NewLocalWorld(2) // wrong world size (need K+1 = 3)
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	if _, err := NewMoEMPIMaster(model, comms[0]); err == nil {
		t.Fatal("wrong world size accepted")
	}
	if _, err := NewMoEMPIMaster(model, comms[1]); err == nil {
		t.Fatal("non-zero rank accepted as master")
	}
}
