package nn

import (
	"fmt"
	"math"

	"github.com/teamnet/teamnet/internal/tensor"
)

// MaxPool2D is a non-overlapping max pooling layer over NCHW rows.
type MaxPool2D struct {
	C, H, W int // input geometry
	K       int // pool window edge (stride == K)

	outH, outW int
	argmax     []int // winning input offset per output element
	lastBatch  int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a KxK max-pool with stride K over C×H×W inputs.
// It panics if H or W is not divisible by K.
func NewMaxPool2D(c, h, w, k int) *MaxPool2D {
	if k <= 0 || h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: maxpool %dx%d not divisible by %d", h, w, k))
	}
	return &MaxPool2D{C: c, H: h, W: w, K: k, outH: h / k, outW: w / k}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string {
	return fmt.Sprintf("maxpool(%dx%dx%d,k%d)", m.C, m.H, m.W, m.K)
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	batch := x.Shape[0]
	m.lastBatch = batch
	outN := batch * m.C * m.outH * m.outW
	if cap(m.argmax) < outN {
		m.argmax = make([]int, outN)
	}
	m.argmax = m.argmax[:outN]
	out := tensor.New(batch, m.C*m.outH*m.outW)
	for b := 0; b < batch; b++ {
		img := x.Data[b*m.C*m.H*m.W:]
		dst := out.Data[b*m.C*m.outH*m.outW:]
		for c := 0; c < m.C; c++ {
			for oy := 0; oy < m.outH; oy++ {
				for ox := 0; ox < m.outW; ox++ {
					best := math.Inf(-1)
					bestOff := -1
					for ky := 0; ky < m.K; ky++ {
						for kx := 0; kx < m.K; kx++ {
							off := c*m.H*m.W + (oy*m.K+ky)*m.W + ox*m.K + kx
							if img[off] > best {
								best = img[off]
								bestOff = off
							}
						}
					}
					oi := c*m.outH*m.outW + oy*m.outW + ox
					dst[oi] = best
					m.argmax[b*m.C*m.outH*m.outW+oi] = bestOff
				}
			}
		}
	}
	return out
}

// Backward implements Layer; gradient routes to the winning input only.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(m.lastBatch, m.C*m.H*m.W)
	per := m.C * m.outH * m.outW
	for b := 0; b < m.lastBatch; b++ {
		img := out.Data[b*m.C*m.H*m.W:]
		for oi := 0; oi < per; oi++ {
			img[m.argmax[b*per+oi]] += grad.Data[b*per+oi]
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
	batch := x.Shape[0]
	g.lastBatch = batch
	sp := g.H * g.W
	out := tensor.New(batch, g.C)
	inv := 1 / float64(sp)
	for b := 0; b < batch; b++ {
		img := x.Data[b*g.C*sp:]
		for c := 0; c < g.C; c++ {
			s := 0.0
			for _, v := range img[c*sp : (c+1)*sp] {
				s += v
			}
			out.Data[b*g.C+c] = s * inv
		}
	}
	return out
}

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
