package nn

import (
	"math"
	"testing"

	"github.com/teamnet/teamnet/internal/tensor"
)

// scalarLoss is a deterministic scalar function of the network output used
// for finite-difference checks: L = Σ w_i · y_i with fixed pseudo-random w.
func scalarLoss(y *tensor.Tensor) (float64, *tensor.Tensor) {
	grad := tensor.New(y.Shape...)
	loss := 0.0
	for i, v := range y.Data {
		w := math.Sin(float64(i)*0.7) + 0.3
		loss += w * v
		grad.Data[i] = w
	}
	return loss, grad
}

// ZeroGrads clears the accumulated gradients of a layer, if any.
func ZeroGrads(l Layer) {
	pl, ok := l.(ParamLayer)
	if !ok {
		return
	}
	for _, g := range pl.Grads() {
		g.Zero()
	}
}

// checkLayerGradients verifies a layer's analytic gradients (both input and
// parameter gradients) against central finite differences.
//
// train selects the forward mode; layers with stochastic training behaviour
// must be checked with train=false or a pinned RNG.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, train bool, tol float64) {
	t.Helper()
	ZeroGrads(l)
	y := l.Forward(x, train)
	_, dy := scalarLoss(y)
	dx := l.Backward(dy)

	const h = 1e-5
	// Input gradient.
	for i := 0; i < x.Size(); i += max(1, x.Size()/24) {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp, _ := scalarLoss(l.Forward(x, train))
		x.Data[i] = orig - h
		lm, _ := scalarLoss(l.Forward(x, train))
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dx.Data[i]) > tol*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s: input grad [%d] = %v, numeric %v", l.Name(), i, dx.Data[i], num)
		}
	}
	// Parameter gradients.
	pl, ok := l.(ParamLayer)
	if !ok {
		return
	}
	params, grads := pl.Params(), pl.Grads()
	for pi, p := range params {
		for i := 0; i < p.Size(); i += max(1, p.Size()/16) {
			orig := p.Data[i]
			p.Data[i] = orig + h
			lp, _ := scalarLoss(l.Forward(x, train))
			p.Data[i] = orig - h
			lm, _ := scalarLoss(l.Forward(x, train))
			p.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-grads[pi].Data[i]) > tol*math.Max(1, math.Abs(num)) {
				t.Fatalf("%s: param %d grad [%d] = %v, numeric %v", l.Name(), pi, i, grads[pi].Data[i], num)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewDense(5, 4, rng)
	checkLayerGradients(t, l, rng.Randn(3, 5), false, 1e-6)
}

func TestReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	x := rng.Randn(4, 6)
	// Keep values away from the kink where finite differences are invalid.
	x.ApplyInPlace(func(v float64) float64 {
		if math.Abs(v) < 0.05 {
			return v + 0.2
		}
		return v
	})
	checkLayerGradients(t, NewReLU(), x, false, 1e-6)
}

func TestTanhGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	checkLayerGradients(t, NewTanh(), rng.Randn(3, 5), false, 1e-6)
}

func TestConv2DGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	l := NewConv2D(g, rng)
	checkLayerGradients(t, l, rng.Randn(2, 2*5*5), false, 1e-5)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 1}
	l := NewConv2D(g, rng)
	checkLayerGradients(t, l, rng.Randn(2, 36), false, 1e-5)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	l := NewMaxPool2D(2, 4, 4, 2)
	// Spread values so the argmax is stable under the probe step.
	x := rng.RandnScaled(3, 2, 32)
	checkLayerGradients(t, l, x, false, 1e-5)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	l := NewGlobalAvgPool(3, 2, 2)
	checkLayerGradients(t, l, rng.Randn(2, 12), false, 1e-6)
}

func TestBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	l := NewBatchNorm(3, 4)
	// Note: finite differences re-run training-mode forward, which also
	// updates running stats; that does not affect the training-path output.
	checkLayerGradients(t, l, rng.Randn(4, 12), true, 1e-4)
}

func TestBatchNormInferenceGradients(t *testing.T) {
	rng := tensor.NewRNG(9)
	l := NewBatchNorm(2, 3)
	// Prime running statistics.
	l.Forward(rng.Randn(8, 6), true)
	x := rng.Randn(3, 6)
	y := l.Forward(x, false)
	if y.HasNaN() {
		t.Fatal("inference batchnorm produced NaN")
	}
}

func TestShakeShakeGradientsEvalMode(t *testing.T) {
	rng := tensor.NewRNG(10)
	b := func() *Network {
		return NewNetwork("b", NewDense(6, 6, rng), NewTanh())
	}
	l := NewShakeShake(b(), b(), nil, rng)
	// Eval mode pins alpha = beta = 0.5, making gradients deterministic.
	checkLayerGradients(t, l, rng.Randn(3, 6), false, 1e-5)
}

func TestShakeShakeWithSkipProjectionGradients(t *testing.T) {
	rng := tensor.NewRNG(11)
	b := func() *Network {
		return NewNetwork("b", NewDense(4, 7, rng))
	}
	skip := NewDense(4, 7, rng)
	l := NewShakeShake(b(), b(), skip, rng)
	checkLayerGradients(t, l, rng.Randn(2, 4), false, 1e-5)
}

func TestNetworkEndToEndGradients(t *testing.T) {
	rng := tensor.NewRNG(12)
	net := NewNetwork("mlp",
		NewDense(6, 8, rng), NewTanh(),
		NewDense(8, 5, rng), NewReLU(),
		NewDense(5, 3, rng),
	)
	x := rng.Randn(4, 6)
	labels := []int{0, 2, 1, 2}

	net.ZeroGrads()
	logits := net.Forward(x, false)
	_, _, dLogits := SoftmaxCrossEntropy(logits, labels)
	net.Backward(dLogits)
	grads := net.Grads()
	params := net.Params()

	const h = 1e-5
	lossAt := func() float64 {
		l, _, _ := SoftmaxCrossEntropy(net.Forward(x, false), labels)
		return l
	}
	for pi, p := range params {
		for i := 0; i < p.Size(); i += max(1, p.Size()/8) {
			orig := p.Data[i]
			p.Data[i] = orig + h
			lp := lossAt()
			p.Data[i] = orig - h
			lm := lossAt()
			p.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-grads[pi].Data[i]) > 1e-5*math.Max(1, math.Abs(num)) {
				t.Fatalf("network param %d grad [%d] = %v, numeric %v", pi, i, grads[pi].Data[i], num)
			}
		}
	}
}

func TestSoftmaxCrossEntropyGradientSumsToZero(t *testing.T) {
	rng := tensor.NewRNG(13)
	logits := rng.Randn(5, 7)
	_, probs, grad := SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3, 4})
	for i := 0; i < 5; i++ {
		s := 0.0
		for _, v := range grad.RowSlice(i) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d gradient sums to %v, want 0", i, s)
		}
	}
	// Probabilities must match an independent softmax.
	if !probs.AllClose(tensor.SoftmaxRows(logits), 1e-12) {
		t.Fatal("fused probs disagree with SoftmaxRows")
	}
}
