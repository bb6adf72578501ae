package nn

import (
	"testing"

	"github.com/teamnet/teamnet/internal/tensor"
)

// NewSigmoid returns a Sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// NewDropout returns a Dropout layer with the given drop rate in [0, 1).
func NewDropout(rate float64, rng *tensor.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate must be in [0, 1)")
	}
	return &Dropout{rate: rate, rng: rng}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := tensor.NewRNG(31)
	d := NewDropout(0.4, rng)
	x := tensor.Ones(4, 8)
	y := d.Forward(x, true)
	grad := tensor.Ones(4, 8)
	gx := d.Backward(grad)
	// Gradient must flow exactly where activations survived, with the same
	// inverted-dropout scale.
	for i := range y.Data {
		if (y.Data[i] == 0) != (gx.Data[i] == 0) {
			t.Fatalf("element %d: forward %v but grad %v", i, y.Data[i], gx.Data[i])
		}
		if y.Data[i] != 0 && gx.Data[i] != y.Data[i] {
			t.Fatalf("element %d: scale mismatch %v vs %v", i, gx.Data[i], y.Data[i])
		}
	}
	// Eval-mode backward is identity.
	d.Forward(x, false)
	if !d.Backward(grad).Equal(grad) {
		t.Fatal("eval-mode dropout backward not identity")
	}
}

func TestDropoutInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 1.0 accepted")
		}
	}()
	NewDropout(1.0, tensor.NewRNG(1))
}

func TestMaxPoolInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-divisible pooling accepted")
		}
	}()
	NewMaxPool2D(1, 5, 5, 2)
}

func TestLayerNames(t *testing.T) {
	rng := tensor.NewRNG(32)
	layers := []Layer{
		NewDense(2, 3, rng), NewReLU(), NewTanh(), NewSigmoid(),
		NewDropout(0.1, rng), NewBatchNorm(2, 3),
		NewMaxPool2D(1, 4, 4, 2), NewGlobalAvgPool(2, 2, 2),
	}
	for _, l := range layers {
		if l.Name() == "" {
			t.Fatalf("%T has empty name", l)
		}
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := tensor.NewRNG(33)
	cases := []Layer{
		NewDense(2, 2, rng),
		NewTanh(),
		NewSigmoid(),
		NewBatchNorm(1, 2),
	}
	for _, l := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Backward before Forward did not panic", l.Name())
				}
			}()
			l.Backward(tensor.New(1, 2))
		}()
	}
}

func TestConv2DInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid conv geometry accepted")
		}
	}()
	NewConv2D(tensor.ConvGeom{InC: 0, InH: 1, InW: 1, OutC: 1, KH: 1, KW: 1, Stride: 1}, tensor.NewRNG(1))
}

func TestCopyWeightsMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(34)
	a := NewNetwork("a", NewDense(2, 2, rng))
	b := NewNetwork("b", NewDense(2, 2, rng), NewDense(2, 2, rng))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched CopyWeightsFrom accepted")
		}
	}()
	b.CopyWeightsFrom(a)
}

func TestShakeShakeDescribeAndCount(t *testing.T) {
	rng := tensor.NewRNG(35)
	b1 := NewNetwork("b1", NewDense(3, 3, rng))
	b2 := NewNetwork("b2", NewDense(3, 3, rng))
	ss := NewShakeShake(b1, b2, NewDense(3, 3, rng), rng)
	if ss.Name() == "" {
		t.Fatal("empty shake name")
	}
	// Two branch denses plus the skip dense.
	want := 3 * (3*3 + 3)
	if got := NewNetwork("ss", ss).ParamCount(); got != want {
		t.Fatalf("shake param count %d, want %d", got, want)
	}
	if len(ss.Grads()) != len(ss.Params()) {
		t.Fatal("params/grads misaligned")
	}
}

func TestNetworkFLOPsPositive(t *testing.T) {
	rng := tensor.NewRNG(36)
	spec := ShakeSpec{Label: "s", InC: 1, InH: 4, InW: 4, Widths: []int{2}, BlocksPerStage: 1, Classes: 2}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	if nnFlops := NetworkFLOPs(net); nnFlops <= 0 {
		t.Fatalf("FLOPs %v", nnFlops)
	}
	if PeakActivationBytes(net, 16) <= 0 {
		t.Fatal("peak activation non-positive")
	}
}
