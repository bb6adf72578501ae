package nn

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/tensor"
)

// ShakeShake is a two-branch residual block with Shake-Shake regularization
// (Gastaldi-style), the CNN family the paper evaluates on CIFAR-10: the two
// branches are mixed with a random coefficient alpha at training time, an
// independent random coefficient beta on the backward pass, and 0.5/0.5 at
// inference.
//
// The explicit two-branch structure is also what the paper's MPI-Branch
// scheme exploits: each branch can run on a different edge node
// (internal/mpi). Branch1 and Branch2 must map the input shape to identical
// output shapes; Skip (optional) adapts the residual path when shapes
// differ, and defaults to identity.
type ShakeShake struct {
	Branch1, Branch2 *Network
	Skip             Layer // nil means identity

	rng       *tensor.RNG
	lastAlpha float64
	lastTrain bool
}

var _ ParamLayer = (*ShakeShake)(nil)

// NewShakeShake returns a Shake-Shake block mixing the two branch networks,
// with an optional skip projection (pass nil for identity).
func NewShakeShake(b1, b2 *Network, skip Layer, rng *tensor.RNG) *ShakeShake {
	return &ShakeShake{Branch1: b1, Branch2: b2, Skip: skip, rng: rng}
}

// Name implements Layer.
func (s *ShakeShake) Name() string {
	return fmt.Sprintf("shakeshake(%d+%d layers)", len(s.Branch1.Layers), len(s.Branch2.Layers))
}

// Forward implements Layer: out = alpha·B1(x) + (1-alpha)·B2(x) + skip(x).
// At inference alpha is ½ and the mix is tensor.MixHalvesInto, the snapshot
// step's own.
func (s *ShakeShake) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	alpha := 0.5
	if train {
		alpha = s.rng.Float64()
	}
	s.lastAlpha = alpha
	s.lastTrain = train
	y1 := s.Branch1.Forward(x, train)
	y2 := s.Branch2.Forward(x, train)
	if !y2.SameShape(y1) {
		panic(fmt.Sprintf("nn: shake-shake branch shapes differ: %v vs %v", y1.Shape, y2.Shape))
	}
	res := x
	if s.Skip != nil {
		res = s.Skip.Forward(x, train)
	}
	if !res.SameShape(y1) {
		panic(fmt.Sprintf("nn: shake-shake residual shape %v != branch shape %v (missing skip projection?)", res.Shape, y1.Shape))
	}
	if !train {
		out := tensor.New(y1.Shape...)
		tensor.MixHalvesInto(out.Data, y1.Data, y2.Data, res.Data)
		return out
	}
	return tensor.Add(tensor.Add(tensor.Scale(y1, alpha), tensor.Scale(y2, 1-alpha)), res)
}

// Backward implements Layer. At training time an independent beta replaces
// alpha on the backward pass (the "shake" in Shake-Shake); at inference-mode
// backward (used only in tests) the forward coefficient is reused.
func (s *ShakeShake) Backward(grad *tensor.Tensor) *tensor.Tensor {
	beta := s.lastAlpha
	if s.lastTrain {
		beta = s.rng.Float64()
	}
	g1 := s.Branch1.Backward(tensor.Scale(grad, beta))
	g2 := s.Branch2.Backward(tensor.Scale(grad, 1-beta))
	dx := tensor.Add(g1, g2)
	if s.Skip != nil {
		dx = tensor.Add(dx, s.Skip.Backward(grad))
	} else {
		dx = tensor.Add(dx, grad)
	}
	return dx
}

// Params implements ParamLayer, aggregating both branches and the skip path.
func (s *ShakeShake) Params() []*tensor.Tensor {
	out := append(s.Branch1.Params(), s.Branch2.Params()...)
	if pl, ok := s.Skip.(ParamLayer); ok {
		out = append(out, pl.Params()...)
	}
	return out
}

// Grads implements ParamLayer.
func (s *ShakeShake) Grads() []*tensor.Tensor {
	out := append(s.Branch1.Grads(), s.Branch2.Grads()...)
	if pl, ok := s.Skip.(ParamLayer); ok {
		out = append(out, pl.Grads()...)
	}
	return out
}

// State implements Stateful, aggregating batch-norm statistics from both
// branches and the skip path.
func (s *ShakeShake) State() []*tensor.Tensor {
	out := append(s.Branch1.State(), s.Branch2.State()...)
	if st, ok := s.Skip.(Stateful); ok {
		out = append(out, st.State()...)
	}
	return out
}
