package nn

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs flattened to [batch, C·H·W]
// rows. Its forward, in both modes, is a direct convolution
// (tensor.DirectConv: the sums of Im2Col × W, bit for bit); its backward
// lowers to Im2Col and matrix multiplies. The kernel is stored as a
// [C·KH·KW, OutC] matrix so that the MPI-Kernel scheme (internal/mpi) can
// column-partition it across edge nodes without copying.
type Conv2D struct {
	Geom   tensor.ConvGeom
	W      *tensor.Tensor // [patchLen, outC]
	B      *tensor.Tensor // [outC]
	GW, GB *tensor.Tensor

	lastX *tensor.Tensor // the last forward's input
}

var _ ParamLayer = (*Conv2D)(nil)

// NewConv2D returns a Conv2D layer with He-normal weights. It panics if the
// geometry is invalid (construction-time programmer error).
func NewConv2D(g tensor.ConvGeom, rng *tensor.RNG) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	pl := g.PatchLen()
	return &Conv2D{
		Geom: g,
		W:    rng.HeNormal(pl, pl, g.OutC),
		B:    tensor.New(g.OutC),
		GW:   tensor.New(pl, g.OutC),
		GB:   tensor.New(g.OutC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv2d(%dx%dx%d→%d,k%dx%d,s%d,p%d)",
		c.Geom.InC, c.Geom.InH, c.Geom.InW, c.Geom.OutC, c.Geom.KH, c.Geom.KW, c.Geom.Stride, c.Geom.Pad)
}

// OutFeatures returns the flattened output width OutC·OutH·OutW.
func (c *Conv2D) OutFeatures() int { return c.Geom.OutC * c.Geom.OutH * c.Geom.OutW }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	c.lastX = x
	return runStep(c.step(), x)
}

// step is the layer's arithmetic with W and B packed as they are now: it is
// built afresh on every Forward, so an optimizer step (which updates W in
// place) can never leave stale packed weights behind.
func (c *Conv2D) step() *convStep {
	return &convStep{geom: c.Geom, conv: tensor.NewDirectConv(c.Geom, c.W.Data, c.B.Data, tensor.Epilogue{})}
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastX == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	batch := c.lastX.Shape[0]
	cols := tensor.Im2Col(c.lastX, c.Geom)
	// Back to [batch·outH·outW, outC] layout.
	g := nchwToSpatial(grad, batch, c.Geom.OutC, c.Geom.OutH*c.Geom.OutW)
	c.GW.AddScaled(tensor.MatMulTransA(cols, g), 1)
	c.GB.AddScaled(tensor.SumCols(g), 1)
	dCols := tensor.MatMulTransB(g, c.W)
	return tensor.Col2Im(dCols, batch, c.Geom)
}

// Params implements ParamLayer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements ParamLayer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.GW, c.GB} }

// nchwToSpatial converts [batch, C·S] NCHW rows (S spatial positions) into
// [batch·S, C] rows, the layout of Im2Col(x) × W.
func nchwToSpatial(x *tensor.Tensor, batch, ch, spatial int) *tensor.Tensor {
	out := tensor.New(batch*spatial, ch)
	for b := 0; b < batch; b++ {
		for cc := 0; cc < ch; cc++ {
			src := x.Data[b*ch*spatial+cc*spatial:]
			for s := 0; s < spatial; s++ {
				out.Data[(b*spatial+s)*ch+cc] = src[s]
			}
		}
	}
	return out
}
