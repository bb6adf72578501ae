package nn

import (
	"bytes"
	"math"
	"testing"

	"github.com/teamnet/teamnet/internal/tensor"
)

// makeXOR generates the classic non-linearly-separable XOR dataset.
func makeXOR(rng *tensor.RNG, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x.Set(float64(a)*2-1+0.2*rng.Norm(), i, 0)
		x.Set(float64(b)*2-1+0.2*rng.Norm(), i, 1)
		y[i] = a ^ b
	}
	return x, y
}

func trainFor(t *testing.T, net *Network, opt Optimizer, x *tensor.Tensor, y []int, steps int) float64 {
	t.Helper()
	var loss float64
	for s := 0; s < steps; s++ {
		net.ZeroGrads()
		logits := net.Forward(x, true)
		var dLogits *tensor.Tensor
		loss, _, dLogits = SoftmaxCrossEntropy(logits, y)
		net.Backward(dLogits)
		opt.Step(net.Params(), net.Grads())
	}
	return loss
}

func TestMomentumLearnsXOR(t *testing.T) {
	rng := tensor.NewRNG(2)
	x, y := makeXOR(rng, 256)
	net := NewNetwork("xor", NewDense(2, 16, rng), NewTanh(), NewDense(16, 2, rng))
	trainFor(t, net, NewMomentum(0.1, 0.9), x, y, 300)
	if acc := net.Accuracy(x, y); acc < 0.95 {
		t.Fatalf("momentum XOR accuracy %v < 0.95", acc)
	}
}

func TestAdamLearnsXOR(t *testing.T) {
	rng := tensor.NewRNG(3)
	x, y := makeXOR(rng, 256)
	net := NewNetwork("xor", NewDense(2, 16, rng), NewReLU(), NewDense(16, 2, rng))
	trainFor(t, net, NewAdam(0.01), x, y, 300)
	if acc := net.Accuracy(x, y); acc < 0.95 {
		t.Fatalf("adam XOR accuracy %v < 0.95", acc)
	}
}

func TestClipGrads(t *testing.T) {
	g := tensor.FromSlice([]float64{3, 4}, 2) // norm 5
	norm := ClipGrads([]*tensor.Tensor{g}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	if math.Abs(g.Norm2()-1) > 1e-12 {
		t.Fatalf("post-clip norm %v, want 1", g.Norm2())
	}
	// Below threshold: untouched.
	g2 := tensor.FromSlice([]float64{0.3, 0.4}, 2)
	ClipGrads([]*tensor.Tensor{g2}, 1)
	if math.Abs(g2.Norm2()-0.5) > 1e-12 {
		t.Fatal("ClipGrads modified an in-bounds gradient")
	}
}

func TestBatchNormNormalizesTrainingBatch(t *testing.T) {
	rng := tensor.NewRNG(6)
	bn := NewBatchNorm(2, 1)
	x := rng.RandnScaled(5, 64, 2)
	tensor.AddInto(x, x, tensor.Full(3, 64, 2)) // shift mean to 3
	y := bn.Forward(x, true)
	for c := 0; c < 2; c++ {
		mean, va := 0.0, 0.0
		for i := 0; i < 64; i++ {
			mean += y.At(i, c)
		}
		mean /= 64
		for i := 0; i < 64; i++ {
			d := y.At(i, c) - mean
			va += d * d
		}
		va /= 64
		if math.Abs(mean) > 1e-9 || math.Abs(va-1) > 1e-6 {
			t.Fatalf("channel %d normalized to mean %v var %v", c, mean, va)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := tensor.NewRNG(7)
	bn := NewBatchNorm(1, 1)
	for i := 0; i < 200; i++ {
		x := rng.RandnScaled(2, 32, 1)
		x.ApplyInPlace(func(v float64) float64 { return v + 5 })
		bn.Forward(x, true)
	}
	if math.Abs(bn.RunMean.Data[0]-5) > 0.5 {
		t.Fatalf("running mean %v, want ≈5", bn.RunMean.Data[0])
	}
	if math.Abs(bn.RunVar.Data[0]-4) > 1.0 {
		t.Fatalf("running var %v, want ≈4", bn.RunVar.Data[0])
	}
}

func TestShakeShakeEvalIsAverage(t *testing.T) {
	rng := tensor.NewRNG(8)
	b1 := NewNetwork("b1", NewDense(3, 3, rng))
	b2 := NewNetwork("b2", NewDense(3, 3, rng))
	ss := NewShakeShake(b1, b2, nil, rng)
	x := rng.Randn(2, 3)
	y := ss.Forward(x, false)
	want := tensor.Add(tensor.Add(tensor.Scale(b1.Forward(x, false), 0.5), tensor.Scale(b2.Forward(x, false), 0.5)), x)
	if !y.AllClose(want, 1e-12) {
		t.Fatal("eval-mode shake-shake is not the 0.5/0.5 mix plus skip")
	}
}

func TestShakeShakeTrainMixesRandomly(t *testing.T) {
	rng := tensor.NewRNG(9)
	b1 := NewNetwork("b1", NewDense(2, 2, rng))
	b2 := NewNetwork("b2", NewDense(2, 2, rng))
	ss := NewShakeShake(b1, b2, nil, rng)
	x := rng.Randn(1, 2)
	a := ss.Forward(x, true)
	b := ss.Forward(x, true)
	if a.Equal(b) {
		t.Fatal("two training forwards used the same alpha")
	}
}

func TestShakeShakeShapeMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(10)
	b1 := NewNetwork("b1", NewDense(3, 5, rng))
	b2 := NewNetwork("b2", NewDense(3, 5, rng))
	ss := NewShakeShake(b1, b2, nil, rng) // missing 3→5 skip projection
	defer func() {
		if recover() == nil {
			t.Fatal("missing skip projection did not panic")
		}
	}()
	ss.Forward(rng.Randn(1, 3), false)
}

func TestMLPSpecBuild(t *testing.T) {
	rng := tensor.NewRNG(11)
	spec := MLPSpec{Label: "MLP-3", Input: 10, Width: 8, Layers: 3, Classes: 4}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	// 3 dense layers, 2 ReLUs.
	if len(net.Layers) != 5 {
		t.Fatalf("layer count %d", len(net.Layers))
	}
	y := net.Forward(rng.Randn(2, 10), false)
	if y.Shape[0] != 2 || y.Shape[1] != 4 {
		t.Fatalf("output shape %v", y.Shape)
	}
	want := 10*8 + 8 + 8*8 + 8 + 8*4 + 4
	if got := net.ParamCount(); got != want {
		t.Fatalf("param count %d, want %d", got, want)
	}
}

func TestMLPSpecSingleLayer(t *testing.T) {
	net, err := MLPSpec{Label: "lin", Input: 4, Layers: 1, Classes: 3}.Build(tensor.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Layers) != 1 {
		t.Fatalf("layer count %d", len(net.Layers))
	}
}

func TestMLPSpecInvalid(t *testing.T) {
	bad := []MLPSpec{
		{Input: 0, Layers: 2, Width: 4, Classes: 2},
		{Input: 4, Layers: 0, Width: 4, Classes: 2},
		{Input: 4, Layers: 2, Width: 0, Classes: 2},
		{Input: 4, Layers: 2, Width: 4, Classes: 0},
	}
	for i, s := range bad {
		if _, err := s.Build(tensor.NewRNG(0)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// Depth returns the paper-style layer count 2 + stages·blocks·2.
func (s ShakeSpec) Depth() int { return 2 + len(s.Widths)*s.BlocksPerStage*2 }

func TestShakeSpecDepthNaming(t *testing.T) {
	cases := []struct {
		spec  Spec
		depth int
	}{
		{ObjectsBaseline(3, 16, 16, 10), 26},
		{mustObjectsExpert(t, 2), 14},
		{mustObjectsExpert(t, 4), 8},
	}
	for _, c := range cases {
		if got := c.spec.Shake.Depth(); got != c.depth {
			t.Fatalf("%s depth %d, want %d", c.spec.Label(), got, c.depth)
		}
	}
}

func mustObjectsExpert(t *testing.T, k int) Spec {
	t.Helper()
	s, err := ObjectsExpert(k, 3, 16, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShakeSpecBuildAndForward(t *testing.T) {
	rng := tensor.NewRNG(13)
	spec := ShakeSpec{Label: "SS-8", InC: 3, InH: 8, InW: 8, Widths: []int{4, 6, 8}, BlocksPerStage: 1, Classes: 10}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	y := net.Forward(rng.Randn(2, 3*8*8), false)
	if y.Shape[0] != 2 || y.Shape[1] != 10 {
		t.Fatalf("output shape %v", y.Shape)
	}
	if y.HasNaN() {
		t.Fatal("forward produced NaN")
	}
}

func TestShakeSpecTrainStepDecreasesLoss(t *testing.T) {
	rng := tensor.NewRNG(14)
	spec := ShakeSpec{Label: "SS", InC: 1, InH: 8, InW: 8, Widths: []int{4, 8}, BlocksPerStage: 1, Classes: 3}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.Randn(12, 64)
	y := make([]int, 12)
	for i := range y {
		y[i] = i % 3
	}
	opt := NewAdam(0.01)
	var first, last float64
	for s := 0; s < 30; s++ {
		net.ZeroGrads()
		logits := net.Forward(x, true)
		loss, _, dLogits := SoftmaxCrossEntropy(logits, y)
		if s == 0 {
			first = loss
		}
		last = loss
		net.Backward(dLogits)
		opt.Step(net.Params(), net.Grads())
	}
	if last >= first {
		t.Fatalf("shake-shake loss did not decrease: %v → %v", first, last)
	}
}

func TestExpertSpecsSmallerThanBaseline(t *testing.T) {
	rng := tensor.NewRNG(15)
	base, err := DigitsBaseline(784, 10).Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		spec, err := DigitsExpert(k, 784, 10)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := spec.Build(rng)
		if err != nil {
			t.Fatal(err)
		}
		if exp.ParamCount() >= base.ParamCount() {
			t.Fatalf("K=%d expert (%d params) not smaller than baseline (%d)", k, exp.ParamCount(), base.ParamCount())
		}
	}
	if _, err := DigitsExpert(3, 784, 10); err == nil {
		t.Fatal("K=3 digit expert should be rejected")
	}
	if _, err := ObjectsExpert(5, 3, 16, 16, 10); err == nil {
		t.Fatal("K=5 object expert should be rejected")
	}
}

func TestSpecRoundTripUnknownKind(t *testing.T) {
	if _, err := (Spec{Kind: "bogus"}).Build(tensor.NewRNG(0)); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, err := (Spec{Kind: "mlp"}).Build(tensor.NewRNG(0)); err == nil {
		t.Fatal("mlp kind without body should error")
	}
	if _, err := (Spec{Kind: "shake"}).Build(tensor.NewRNG(0)); err == nil {
		t.Fatal("shake kind without body should error")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(16)
	spec := ShakeSpec{Label: "SS", InC: 1, InH: 4, InW: 4, Widths: []int{3}, BlocksPerStage: 1, Classes: 2}
	src, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	// Prime batch-norm running stats so State round-trip is observable.
	src.Forward(rng.Randn(8, 16), true)

	var buf bytes.Buffer
	if err := SaveNetwork(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst, err := spec.Build(tensor.NewRNG(999)) // different init
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadNetworkInto(&buf, dst); err != nil {
		t.Fatal(err)
	}
	x := rng.Randn(3, 16)
	if !dst.Forward(x, false).AllClose(src.Forward(x, false), 1e-12) {
		t.Fatal("loaded network disagrees with source")
	}
}

func TestSnapshotRejectsWrongArchitecture(t *testing.T) {
	rng := tensor.NewRNG(17)
	a, _ := MLPSpec{Label: "a", Input: 4, Width: 8, Layers: 2, Classes: 2}.Build(rng)
	b, _ := MLPSpec{Label: "b", Input: 4, Width: 9, Layers: 2, Classes: 2}.Build(rng)
	var buf bytes.Buffer
	if err := SaveNetwork(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := LoadNetworkInto(&buf, b); err == nil {
		t.Fatal("mismatched architecture load should fail")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	rng := tensor.NewRNG(18)
	n, _ := MLPSpec{Label: "n", Input: 2, Width: 2, Layers: 2, Classes: 2}.Build(rng)
	if err := LoadNetworkInto(bytes.NewReader([]byte("not a snapshot at all")), n); err == nil {
		t.Fatal("garbage snapshot should fail")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rng := tensor.NewRNG(19)
	spec := MLPSpec{Label: "m", Input: 3, Width: 5, Layers: 3, Classes: 2}
	a, _ := spec.Build(rng)
	b, _ := spec.Build(tensor.NewRNG(20))
	b.CopyWeightsFrom(a)
	x := rng.Randn(2, 3)
	if !a.Forward(x, false).AllClose(b.Forward(x, false), 1e-12) {
		t.Fatal("copied network disagrees")
	}
}

func TestPredictWithEntropy(t *testing.T) {
	rng := tensor.NewRNG(21)
	net, _ := MLPSpec{Label: "m", Input: 4, Width: 6, Layers: 2, Classes: 3}.Build(rng)
	probs, h := net.PredictWithEntropy(rng.Randn(5, 4))
	if probs.Shape[0] != 5 || probs.Shape[1] != 3 || h.Size() != 5 {
		t.Fatalf("shapes %v %v", probs.Shape, h.Shape)
	}
	for _, v := range h.Data {
		if v < 0 || v > math.Log(3)+1e-9 {
			t.Fatalf("entropy %v out of [0, ln 3]", v)
		}
	}
}

func TestNetworkLabel(t *testing.T) {
	rng := tensor.NewRNG(23)
	net := NewNetwork("demo", NewDense(2, 3, rng), NewReLU())
	if net.Label() != "demo" {
		t.Fatalf("Label = %q", net.Label())
	}
}

func TestSizeBytesFloat32Deployment(t *testing.T) {
	rng := tensor.NewRNG(24)
	net := NewNetwork("m", NewDense(10, 10, rng))
	if got := net.SizeBytes(); got != int64(110*4) {
		t.Fatalf("SizeBytes = %d", got)
	}
}

// TestMaxPoolBackwardNonFiniteWindows pins where a window with no finite tap
// sends its gradient: an all-NaN window (output −Inf) nowhere, an all-−Inf
// window to its first tap.
func TestMaxPoolBackwardNonFiniteWindows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	l := NewMaxPool2D(1, 2, 4, 2)
	// Two 2×2 windows: the left one all NaN, the right one all −Inf.
	x := tensor.FromSlice([]float64{
		nan, nan, inf, inf,
		nan, nan, inf, inf,
	}, 1, 8)
	y := l.Forward(x, true)
	if !math.IsInf(y.Data[0], -1) || !math.IsInf(y.Data[1], -1) {
		t.Fatalf("pooled %v, want [-Inf -Inf]", y.Data)
	}
	dx := l.Backward(tensor.FromSlice([]float64{1, 2}, 1, 2))
	want := []float64{0, 0, 2, 0, 0, 0, 0, 0}
	for i, v := range want {
		if dx.Data[i] != v {
			t.Fatalf("input gradient %v, want %v", dx.Data, want)
		}
	}
}
