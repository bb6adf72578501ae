package nn

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Dense is a fully-connected layer computing y = xW + b.
type Dense struct {
	W, B   *tensor.Tensor // W: [in, out], B: [out]
	GW, GB *tensor.Tensor

	in, out int
	lastX   *tensor.Tensor // cached input for the backward pass
}

var _ ParamLayer = (*Dense)(nil)

// NewDense returns a Dense layer with Xavier-uniform weights and zero bias.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	return &Dense{
		W:   rng.XavierUniform(in, out),
		B:   tensor.New(out),
		GW:  tensor.New(in, out),
		GB:  tensor.New(out),
		in:  in,
		out: out,
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d→%d)", d.in, d.out) }

// In returns the input width.
func (d *Dense) In() int { return d.in }

// Out returns the output width.
func (d *Dense) Out() int { return d.out }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	d.lastX = x
	return runStep(d.step(), x)
}

// step is the layer's arithmetic, x·W + b, over the live weights.
func (d *Dense) step() *denseStep {
	return &denseStep{w: d.W.Data, b: d.B.Data, in: d.in, out: d.out}
}

// Backward implements Layer, accumulating dL/dW and dL/dB.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward")
	}
	d.GW.AddScaled(tensor.MatMulTransA(d.lastX, grad), 1)
	d.GB.AddScaled(tensor.SumCols(grad), 1)
	return tensor.MatMulTransB(grad, d.W)
}

// Params implements ParamLayer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements ParamLayer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.GW, d.GB} }
