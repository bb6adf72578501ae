package nn

import (
	"testing"

	"github.com/teamnet/teamnet/internal/tensor"
)

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
		NewDense(2, 3, rng), NewReLU(), NewTanh(), NewBatchNorm(2, 3),
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
