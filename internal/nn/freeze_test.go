package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// zooModels builds every architecture family in the zoo at test-sized
// geometry, with batch-norm running statistics populated by one training
// pass so the inference path exercises real statistics.
func zooModels(t *testing.T) []*Network {
	t.Helper()
	rng := tensor.NewRNG(41)
	specs := []Spec{DigitsBaseline(64, 10)}
	for _, k := range []int{2, 4} {
		s, err := DigitsExpert(k, 64, 10)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	specs = append(specs, ObjectsBaseline(3, 8, 8, 10))
	for _, k := range []int{2, 4} {
		s, err := ObjectsExpert(k, 3, 8, 8, 10)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	nets := make([]*Network, 0, len(specs))
	for _, spec := range specs {
		net, err := spec.Build(rng.Split(int64(len(nets))))
		if err != nil {
			t.Fatalf("build %s: %v", spec.Label(), err)
		}
		x := rng.Randn(4, inputWidth(net))
		net.Forward(x, true) // populate batch-norm running stats
		nets = append(nets, net)
	}
	return nets
}

// ss14Objects builds the expert the benchmark's objects_single workload
// serves: SS-14 on 3×32×32 inputs, running statistics populated.
func ss14Objects(tb testing.TB) *Network {
	tb.Helper()
	rng := tensor.NewRNG(49)
	spec, err := ObjectsExpert(2, 3, 32, 32, 10)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := spec.Build(rng)
	if err != nil {
		tb.Fatal(err)
	}
	net.Forward(rng.Randn(2, inputWidth(net)), true)
	return net
}

// inputWidth infers a network's input width from its first layer.
func inputWidth(n *Network) int {
	switch l := n.Layers[0].(type) {
	case *Dense:
		return l.In()
	case *Conv2D:
		return l.Geom.InC * l.Geom.InH * l.Geom.InW
	default:
		panic("test: cannot infer input width for " + l.Name())
	}
}

// bitEqual reports whether two tensors agree bit for bit.
func bitEqual(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// kernelLegs runs a test body three times: with the machine's kernels (the
// zmm convolution tiles where it has them), with the ymm tiles, and with
// every assembly kernel off.
var kernelLegs = []struct {
	name string
	run  func(func())
}{{"machine's", func(f func()) { f() }}, {"ymm", tensor.WithoutAVX512}, {"portable", tensor.WithoutSIMD}}

// portable runs f with every assembly kernel off: the reference the SIMD
// legs are held to is the portable loops, not the kernels under test.
func portable[T any](f func() T) T {
	var v T
	tensor.WithoutSIMD(func() { v = f() })
	return v
}

// TestSnapshotBitMatchesNetwork is the property test of the snapshot
// compiler: for every zoo model and for SS-14 at the 3×32×32 shape the
// benchmark serves (32-, 16- and 8-wide planes, where the toy geometries
// have 8, 4 and 2), the snapshot's logits, probabilities and entropies and
// the network's own inference forward must bit-match the network's forward
// on the portable loops, on every kernel leg — a Shake-Shake model at 1, 5
// and 16 rows, every block compiled to its convolutions (blockStep).
func TestSnapshotBitMatchesNetwork(t *testing.T) {
	rng := tensor.NewRNG(42)
	type probe struct {
		x, logits, probs, entropy *tensor.Tensor
	}
	nets := append(zooModels(t), ss14Objects(t))
	probes := make([][]probe, len(nets))
	for i, net := range nets {
		rows := []int{5}
		if _, ok := net.Layers[0].(*Conv2D); ok {
			rows = []int{1, 5, 16}
		}
		if i == len(nets)-1 {
			rows = []int{1, 3, 16}
		}
		for _, r := range rows {
			p := probe{x: rng.Randn(r, inputWidth(net))}
			tensor.WithoutSIMD(func() {
				p.logits = net.Forward(p.x, false)
				p.probs, p.entropy = net.PredictWithEntropy(p.x)
			})
			probes[i] = append(probes[i], p)
		}
	}
	for _, kernels := range kernelLegs {
		kernels.run(func() {
			for i, net := range nets {
				snap, err := NewSnapshot(net)
				if err != nil {
					t.Fatalf("%s: NewSnapshot: %v", net.Label(), err)
				}
				if snap.Label() != net.Label() {
					t.Errorf("snapshot label %q != %q", snap.Label(), net.Label())
				}
				for _, p := range probes[i] {
					what := fmt.Sprintf("%s, %d rows, %s kernels", net.Label(), p.x.Shape[0], kernels.name)
					if !bitEqual(p.logits, net.Forward(p.x, false)) {
						t.Errorf("%s: network Forward does not bit-match the portable loops", what)
					}
					if !bitEqual(p.logits, snap.Forward(p.x)) {
						t.Errorf("%s: snapshot Forward does not bit-match the portable loops", what)
					}
					probs, h := snap.PredictWithEntropy(p.x)
					if !bitEqual(p.probs, probs) || !bitEqual(p.entropy, h) {
						t.Errorf("%s: snapshot PredictWithEntropy does not bit-match the portable loops", what)
					}
				}
			}
		})
	}
}

// TestSnapshotBitMatchesMixedActivations covers the gate-style layer the
// zoo specs do not use: Tanh, beside and after ReLU.
func TestSnapshotBitMatchesMixedActivations(t *testing.T) {
	rng := tensor.NewRNG(43)
	net := NewNetwork("gate",
		NewDense(12, 16, rng), NewTanh(),
		NewDense(16, 8, rng), NewReLU(), NewDense(8, 8, rng), NewTanh())
	x := rng.Randn(7, 12)
	want := portable(func() *tensor.Tensor { return net.Forward(x, false) })
	for _, kernels := range kernelLegs {
		kernels.run(func() {
			if !bitEqual(want, MustSnapshot(net).Forward(x)) || !bitEqual(want, net.Forward(x, false)) {
				t.Errorf("%s kernels: tanh/relu net does not bit-match the portable loops", kernels.name)
			}
		})
	}
}

// im2colConv is a convolution as Im2Col × W + b, rearranged from
// [batch·outH·outW, outC] to NCHW rows: the reference Conv2D's direct
// forward is held to.
func im2colConv(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	g, batch := c.Geom, x.Shape[0]
	y := tensor.MatMul(tensor.Im2Col(x, g), c.W)
	y.AddRowVector(c.B)
	sp := g.OutH * g.OutW
	out := tensor.New(batch, g.OutC*sp)
	for b := 0; b < batch; b++ {
		for s := 0; s < sp; s++ {
			for oc := 0; oc < g.OutC; oc++ {
				out.Data[(b*g.OutC+oc)*sp+s] = y.Data[(b*sp+s)*g.OutC+oc]
			}
		}
	}
	return out
}

// convLayers collects every Conv2D of a network, inside shake-shake
// branches and skip projections too.
func convLayers(layers []Layer) []*Conv2D {
	var out []*Conv2D
	for _, l := range layers {
		switch l := l.(type) {
		case *Conv2D:
			out = append(out, l)
		case *ShakeShake:
			out = append(out, convLayers(l.Branch1.Layers)...)
			out = append(out, convLayers(l.Branch2.Layers)...)
			out = append(out, convLayers([]Layer{l.Skip})...)
		}
	}
	return out
}

// TestConv2DTrainForwardMatchesIm2Col is the training-mode leg: on every
// convolution of the zoo, of SS-14 on 3×32×32 and on the strided geometry
// of TestConv2DStridedGradients, Forward(x, true) must bit-match
// Im2Col × W + b on the portable loops, on every kernel leg.
func TestConv2DTrainForwardMatchesIm2Col(t *testing.T) {
	rng := tensor.NewRNG(52)
	var convs []*Conv2D
	for _, net := range append(zooModels(t), ss14Objects(t)) {
		convs = append(convs, convLayers(net.Layers)...)
	}
	convs = append(convs, NewConv2D(tensor.ConvGeom{InC: 1, InH: 6, InW: 6, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 1}, rng))
	for _, c := range convs {
		x := rng.Randn(3, c.Geom.InC*c.Geom.InH*c.Geom.InW)
		want := portable(func() *tensor.Tensor { return im2colConv(c, x) })
		for _, kernels := range kernelLegs {
			kernels.run(func() {
				if !bitEqual(want, c.Forward(x, true)) {
					t.Errorf("%s, %s kernels: training forward does not bit-match Im2Col × W + b", c.Name(), kernels.name)
				}
			})
		}
	}
}

// TestNetworkForwardFollowsOptimizerStep is the staleness case: the
// optimizer updates weights in place, so after a step the network's
// inference forward must bit-match a snapshot compiled after it — a layer
// that kept weights packed before the step would not.
func TestNetworkForwardFollowsOptimizerStep(t *testing.T) {
	rng := tensor.NewRNG(53)
	spec, err := ObjectsExpert(2, 3, 8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.Randn(4, inputWidth(net))
	before := net.Forward(x, false)
	net.ZeroGrads()
	_, _, dLogits := SoftmaxCrossEntropy(net.Forward(x, true), []int{0, 1, 2, 3})
	net.Backward(dLogits)
	NewMomentum(0.1, 0.9).Step(net.Params(), net.Grads())
	after := net.Forward(x, false)
	if bitEqual(before, after) {
		t.Fatal("the optimizer step left the forward unchanged; the case tests nothing")
	}
	if !bitEqual(after, MustSnapshot(net).Forward(x)) {
		t.Fatal("after an optimizer step the network forward does not bit-match a fresh snapshot")
	}
}

// TestSnapshotConcurrentForward hammers one snapshot from many goroutines
// (run under -race by `make verify`), checking every call against golden
// per-row outputs computed by the source network.
func TestSnapshotConcurrentForward(t *testing.T) {
	rng := tensor.NewRNG(44)
	spec, err := ObjectsExpert(4, 3, 8, 8, 10) // conv path: the hard case
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	in := inputWidth(net)
	net.Forward(rng.Randn(4, in), true) // populate running stats
	x := rng.Randn(6, in)
	golden := net.Forward(x, false)
	snap := MustSnapshot(net)

	const goroutines = 12
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := tensor.New(golden.Shape[0], golden.Shape[1])
			for it := 0; it < iters; it++ {
				snap.ForwardInto(dst, x)
				if !bitEqual(golden, dst) {
					select {
					case errs <- "concurrent ForwardInto diverged from golden output":
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSnapshotZeroAllocSteadyState gates the zero-allocation property: a
// warmed-up ForwardInto must not touch the heap.
// The 64-row batch through MLP-8 is large enough to take the parallel
// matmul dispatch path, so the kernel worker-pool hand-off is covered too.
func TestSnapshotZeroAllocSteadyState(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so steady state allocates by design")
	}
	rng := tensor.NewRNG(45)
	net, err := DigitsBaseline(64, 10).Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	snap := MustSnapshot(net)
	x := rng.Randn(64, 64)
	probs := tensor.New(64, 10)
	for i := 0; i < 3; i++ { // warm up arenas and kernel pool
		snap.ForwardInto(probs, x)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		snap.ForwardInto(probs, x)
	}); allocs != 0 {
		t.Errorf("ForwardInto steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSnapshotArenaHighWater pins the liveness of a forward pass's scratch:
// one SS-14 row on 3×32×32 holds at most 1.2 MB of arena at once — the
// top-level steps' activations plus one block's padded images and branch
// output, freed when the block's output is written — and a pass after the
// first allocates nothing.
func TestSnapshotArenaHighWater(t *testing.T) {
	net := ss14Objects(t)
	snap := MustSnapshot(net)
	x := tensor.NewRNG(51).Randn(1, inputWidth(net))
	ar := &arena{}
	runSteps(ar, snap.steps, x.Data, 1, x.Shape[1])
	if got := 8 * ar.high; got > 1_200_000 {
		t.Errorf("one SS-14 row holds %d bytes of arena at once, want ≤ 1.2 MB", got)
	}
	ar.reset()
	if allocs := testing.AllocsPerRun(5, func() {
		runSteps(ar, snap.steps, x.Data, 1, x.Shape[1])
		ar.reset()
	}); !raceDetectorEnabled && allocs != 0 {
		t.Errorf("a warmed-up SS-14 pass allocates %.1f times, want 0", allocs)
	}
}

type bogusLayer struct{}

func (bogusLayer) Name() string                                    { return "bogus" }
func (bogusLayer) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }
func (bogusLayer) Backward(g *tensor.Tensor) *tensor.Tensor        { return g }

func TestSnapshotRejectsUnknownLayer(t *testing.T) {
	net := NewNetwork("bogus", bogusLayer{})
	if _, err := NewSnapshot(net); err == nil {
		t.Fatal("NewSnapshot accepted an uncompilable layer")
	}
	if _, err := NewSnapshot(nil); err == nil {
		t.Fatal("NewSnapshot accepted a nil network")
	}
	rng := tensor.NewRNG(54)
	dense := NewShakeShake(NewNetwork("b", NewDense(6, 6, rng)), NewNetwork("b", NewDense(6, 6, rng)), nil, rng)
	if _, err := NewSnapshot(NewNetwork("shake", dense)); err == nil {
		t.Fatal("NewSnapshot accepted a shake-shake block that is not convolutions")
	}
}

func TestSnapshotPanicsOnBadInputWidth(t *testing.T) {
	rng := tensor.NewRNG(46)
	net := NewNetwork("tiny", NewDense(8, 4, rng))
	snap := MustSnapshot(net)
	defer func() {
		if recover() == nil {
			t.Fatal("snapshot accepted a mis-sized input")
		}
	}()
	snap.Forward(tensor.New(2, 5))
}

// benchForwardPair benchmarks a model through both forward paths at the
// gateway's coalesced batch size.
func benchForwardPair(b *testing.B, net *Network, rows int) {
	rng := tensor.NewRNG(47)
	x := rng.Randn(rows, inputWidth(net))
	b.Run("network", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.Forward(x, false)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		snap := MustSnapshot(net)
		out := snap.Forward(x)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap.ForwardInto(out, x)
		}
	})
}

func BenchmarkForwardMLP8x16(b *testing.B) {
	rng := tensor.NewRNG(48)
	net, err := DigitsBaseline(64, 10).Build(rng)
	if err != nil {
		b.Fatal(err)
	}
	benchForwardPair(b, net, 16)
}

func BenchmarkForwardSS8x16(b *testing.B) {
	rng := tensor.NewRNG(49)
	spec, err := ObjectsExpert(4, 3, 16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	net, err := spec.Build(rng)
	if err != nil {
		b.Fatal(err)
	}
	net.Forward(rng.Randn(2, inputWidth(net)), true)
	benchForwardPair(b, net, 16)
}

// benchForwardSS14 times the shape the benchmark's objects_single workload
// serves — one SS-14 expert on 3×32×32 rows — through the snapshot alone,
// reporting GFLOP/s from the network's own 2·MAC count so the figure reads
// against tensor's BenchmarkPeakMulAdd (docs/BENCHMARKS.md).
func benchForwardSS14(b *testing.B, rows int) {
	net := ss14Objects(b)
	x := tensor.NewRNG(50).Randn(rows, inputWidth(net))
	snap := MustSnapshot(net)
	out := snap.Forward(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.ForwardInto(out, x)
	}
	flops := NetworkFLOPs(net) * float64(rows) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkForwardSS14x1(b *testing.B)  { benchForwardSS14(b, 1) }
func BenchmarkForwardSS14x16(b *testing.B) { benchForwardSS14(b, 16) }

// BenchmarkForwardSS14Steps attributes one SS-14 row on 3×32×32 — the
// objects_single shape — to the kinds of compiled step: it walks the
// snapshot's steps, timing each, and reports the nanoseconds per row spent
// in every kind (the stem's conv, batchnorm and relu, shake-block — a
// block's convolutions with their epilogues and its mix — maxpool, gap,
// dense) as custom metrics, and the row's arena high-water mark in bytes
// (docs/BENCHMARKS.md). The walk's output is checked against Forward first.
func BenchmarkForwardSS14Steps(b *testing.B) {
	net := ss14Objects(b)
	x := tensor.NewRNG(50).Randn(1, inputWidth(net))
	snap := MustSnapshot(net)
	spent := map[string]time.Duration{}
	ar := &arena{}
	out, _ := timeSteps(ar, snap.steps, x.Data, 1, x.Shape[1], spent)
	if want := snap.Forward(x); !bitEqual(want, &tensor.Tensor{Data: out, Shape: want.Shape}) {
		b.Fatal("the timed walk does not reproduce Snapshot.Forward")
	}
	high := 8 * ar.high
	ar.reset()
	clear(spent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timeSteps(ar, snap.steps, x.Data, 1, x.Shape[1], spent)
		ar.reset()
	}
	for _, kind := range []string{"conv", "batchnorm", "relu", "shake-block", "maxpool", "gap", "dense"} {
		b.ReportMetric(float64(spent[kind].Nanoseconds())/float64(b.N), kind+"-ns/row")
	}
	b.ReportMetric(float64(high), "arena-B/row")
}

// timeSteps is runSteps with a stopwatch around every step, adding each
// step's time to spent under its kind.
func timeSteps(a *arena, steps []inferStep, x []float64, batch, width int, spent map[string]time.Duration) ([]float64, int) {
	for _, st := range steps {
		start := time.Now()
		x, width = st.run(a, x, batch, width)
		d := time.Since(start)
		switch st.(type) {
		case *convStep:
			spent["conv"] += d
		case *bnStep:
			spent["batchnorm"] += d
		case reluStep:
			spent["relu"] += d
		case *blockStep:
			spent["shake-block"] += d
		case *maxPoolStep:
			spent["maxpool"] += d
		case *gapStep:
			spent["gap"] += d
		case *denseStep:
			spent["dense"] += d
		default:
			spent[fmt.Sprintf("%T", st)] += d
		}
	}
	return x, width
}
