package nn

import "github.com/teamnet/teamnet/internal/tensor"

// ReLU is the rectified-linear activation max(x, 0) (Nair & Hinton, the
// paper's reference [13]).
type ReLU struct {
	lastY *tensor.Tensor // the last forward's output
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	r.lastY = runStep(reluStep{}, x)
	return r.lastY
}

// Backward implements Layer: the gradient passes where the output is
// positive, which is where the input was.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastY == nil || r.lastY.Size() != grad.Size() {
		panic("nn: ReLU.Backward size mismatch or Backward before Forward")
	}
	out := tensor.New(grad.Shape...)
	for i, v := range grad.Data {
		if r.lastY.Data[i] > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// Tanh is the hyperbolic-tangent activation, used inside the gate MLP
// W(z, Θ) of TeamNet's dynamic gate (Algorithm 2).
type Tanh struct {
	lastY *tensor.Tensor
}

var _ Layer = (*Tanh)(nil)

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	t.lastY = runStep(tanhStep{}, x)
	return t.lastY
}

// Backward implements Layer; d tanh(x)/dx = 1 - tanh²(x).
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if t.lastY == nil {
		panic("nn: Tanh.Backward before Forward")
	}
	out := tensor.New(grad.Shape...)
	for i, g := range grad.Data {
		y := t.lastY.Data[i]
		out.Data[i] = g * (1 - y*y)
	}
	return out
}
