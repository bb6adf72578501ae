package nn

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/tensor"
)

// MaxPool2D is a non-overlapping max pooling layer over NCHW rows.
type MaxPool2D struct {
	C, H, W int // input geometry
	K       int // pool window edge (stride == K)

	lastX, lastY *tensor.Tensor // the last forward's input and output
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a KxK max-pool with stride K over C×H×W inputs.
// It panics if H or W is not divisible by K.
func NewMaxPool2D(c, h, w, k int) *MaxPool2D {
	if k <= 0 || h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: maxpool %dx%d not divisible by %d", h, w, k))
	}
	return &MaxPool2D{C: c, H: h, W: w, K: k}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string {
	return fmt.Sprintf("maxpool(%dx%dx%d,k%d)", m.C, m.H, m.W, m.K)
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	m.lastX, m.lastY = x, runStep(m.step(), x)
	return m.lastY
}

func (m *MaxPool2D) step() *maxPoolStep { return &maxPoolStep{c: m.C, h: m.H, w: m.W, k: m.K} }

// Backward implements Layer. Each output's gradient goes to the first tap,
// in window order, equal to the output — the tap tensor.MaxPoolInto chose,
// since a tap wins only by being greater than every earlier one. An
// all-NaN window (output −Inf, no tap equal to it) passes no gradient.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.lastY == nil {
		panic("nn: MaxPool2D.Backward before Forward")
	}
	outH, outW := m.H/m.K, m.W/m.K
	out := tensor.New(m.lastX.Shape[0], m.C*m.H*m.W)
	for o, v := range m.lastY.Data {
		p, oy, ox := o/(outH*outW), o/outW%outH, o%outW
		img, dst := m.lastX.Data[p*m.H*m.W:], out.Data[p*m.H*m.W:]
	taps:
		for ky := 0; ky < m.K; ky++ {
			for kx := 0; kx < m.K; kx++ {
				if off := (oy*m.K+ky)*m.W + ox*m.K + kx; img[off] == v {
					dst[off] += grad.Data[o]
					break taps
				}
			}
		}
	}
	return out
}

// GlobalAvgPool averages each channel's spatial map to a single value,
// producing [batch, C] from [batch, C·H·W]. It is the head of the
// Shake-Shake networks.
type GlobalAvgPool struct {
	C, H, W   int
	lastBatch int
}

var _ Layer = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool returns a global average pool over C×H×W inputs.
func NewGlobalAvgPool(c, h, w int) *GlobalAvgPool {
	return &GlobalAvgPool{C: c, H: h, W: w}
}

// Name implements Layer.
func (g *GlobalAvgPool) Name() string {
	return fmt.Sprintf("gap(%dx%dx%d)", g.C, g.H, g.W)
}

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	g.lastBatch = x.Shape[0]
	return runStep(g.step(), x)
}

func (g *GlobalAvgPool) step() *gapStep { return &gapStep{c: g.C, sp: g.H * g.W} }

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	sp := g.H * g.W
	inv := 1 / float64(sp)
	out := tensor.New(g.lastBatch, g.C*sp)
	for b := 0; b < g.lastBatch; b++ {
		img := out.Data[b*g.C*sp:]
		for c := 0; c < g.C; c++ {
			gv := grad.Data[b*g.C+c] * inv
			dst := img[c*sp : (c+1)*sp]
			for i := range dst {
				dst[i] = gv
			}
		}
	}
	return out
}
