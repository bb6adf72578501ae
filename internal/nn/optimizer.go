package nn

import (
	"math"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Optimizer updates parameters in place from index-aligned gradients.
// Implementations keep per-parameter state keyed by slice position, so a
// given optimizer instance must always be stepped with the same network.
type Optimizer interface {
	// Step applies one update. params[i] is updated from grads[i]; grads
	// are not modified.
	Step(params, grads []*tensor.Tensor)
}

// Momentum is SGD with classical momentum: v ← μv + g; θ ← θ - ηv.
type Momentum struct {
	LR, Mu      float64
	WeightDecay float64

	vel []*tensor.Tensor
}

var _ Optimizer = (*Momentum)(nil)

// NewMomentum returns a momentum optimizer (μ defaults to the usual 0.9).
func NewMomentum(lr, mu float64) *Momentum { return &Momentum{LR: lr, Mu: mu} }

// Step implements Optimizer.
func (m *Momentum) Step(params, grads []*tensor.Tensor) {
	if m.vel == nil {
		m.vel = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			m.vel[i] = tensor.New(p.Shape...)
		}
	}
	for i, p := range params {
		g, v := grads[i], m.vel[i]
		for j := range p.Data {
			v.Data[j] = m.Mu*v.Data[j] + g.Data[j] + m.WeightDecay*p.Data[j]
			p.Data[j] -= m.LR * v.Data[j]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction. TeamNet's
// gate parameters Θ and the SG-MoE joint architecture train with Adam; the
// expert networks use momentum per Algorithm 3.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t    int
	m, v []*tensor.Tensor
}

var _ Optimizer = (*Adam)(nil)

// NewAdam returns an Adam optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(params, grads []*tensor.Tensor) {
	if a.m == nil {
		a.m = make([]*tensor.Tensor, len(params))
		a.v = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			a.m[i] = tensor.New(p.Shape...)
			a.v[i] = tensor.New(p.Shape...)
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		g, m, v := grads[i], a.m[i], a.v[i]
		for j := range p.Data {
			gj := g.Data[j] + a.WeightDecay*p.Data[j]
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*gj
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*gj*gj
			mh := m.Data[j] / c1
			vh := v.Data[j] / c2
			p.Data[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// ClipGrads rescales gradients in place so their global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm. Training loops use it as a
// divergence guard.
func ClipGrads(grads []*tensor.Tensor, maxNorm float64) float64 {
	total := 0.0
	for _, g := range grads {
		for _, v := range g.Data {
			total += v * v
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, g := range grads {
			g.ScaleInPlace(scale)
		}
	}
	return norm
}
