package nn

import (
	"fmt"
	"math"
	"slices"

	"github.com/teamnet/teamnet/internal/tensor"
)

// BatchNorm normalizes activations per channel over the batch (Ioffe &
// Szegedy, the paper's reference [14]), with learned scale (gamma) and shift
// (beta), and running statistics for inference.
//
// The layer treats its input rows as C channels of S spatial positions each
// (features = C·S). With S == 1 it is the classic dense batch-norm; with
// S == H·W it is the convolutional variant used inside Shake-Shake blocks.
type BatchNorm struct {
	C, S int

	Gamma, Beta   *tensor.Tensor // [C]
	GGamma, GBeta *tensor.Tensor

	RunMean, RunVar *tensor.Tensor // running statistics for inference
	Momentum        float64        // running-stat update rate
	Eps             float64

	// Cached values from the training forward pass.
	lastXHat  *tensor.Tensor
	lastStd   []float64
	lastBatch int
}

var _ ParamLayer = (*BatchNorm)(nil)

// NewBatchNorm returns a batch-norm layer over C channels of S spatial
// positions (features = C·S).
func NewBatchNorm(c, s int) *BatchNorm {
	return &BatchNorm{
		C:        c,
		S:        s,
		Gamma:    tensor.Ones(c),
		Beta:     tensor.New(c),
		GGamma:   tensor.New(c),
		GBeta:    tensor.New(c),
		RunMean:  tensor.New(c),
		RunVar:   tensor.Ones(c),
		Momentum: 0.9,
		Eps:      1e-5,
	}
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return fmt.Sprintf("batchnorm(c%d,s%d)", b.C, b.S) }

// Forward implements Layer. In training mode it normalizes with batch
// statistics and updates the running statistics; in inference mode it uses
// the running statistics only. Both normalize through the layer's step.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Shape[1] != b.C*b.S {
		panic(fmt.Sprintf("nn: batchnorm features %d != %d·%d", x.Shape[1], b.C, b.S))
	}
	if !train {
		b.lastXHat = nil
		return runStep(b.step(b.RunMean.Data, b.std(b.RunVar.Data)), x)
	}

	batch := x.Shape[0]
	n := float64(batch * b.S)
	mean, variance := make([]float64, b.C), make([]float64, b.C)
	for c := 0; c < b.C; c++ {
		for bi := 0; bi < batch; bi++ {
			for _, v := range x.Data[bi*b.C*b.S+c*b.S:][:b.S] {
				mean[c] += v
			}
		}
		mean[c] /= n
		for bi := 0; bi < batch; bi++ {
			for _, v := range x.Data[bi*b.C*b.S+c*b.S:][:b.S] {
				d := v - mean[c]
				variance[c] += d * d
			}
		}
		variance[c] /= n
	}
	b.lastBatch = batch
	b.lastStd = b.std(variance)
	st := b.step(mean, b.lastStd)
	// x̂ is kept for Backward; the step recomputes it inside the affine.
	b.lastXHat = tensor.New(batch, b.C*b.S)
	for p := 0; p < batch*b.C; p++ {
		c := p % b.C
		for i, v := range x.Data[p*b.S : (p+1)*b.S] {
			b.lastXHat.Data[p*b.S+i] = (v - mean[c]) * st.invStd[c]
		}
	}
	for c := range mean {
		b.RunMean.Data[c] = b.Momentum*b.RunMean.Data[c] + (1-b.Momentum)*mean[c]
		b.RunVar.Data[c] = b.Momentum*b.RunVar.Data[c] + (1-b.Momentum)*variance[c]
	}
	return runStep(st, x)
}

// std returns sqrt(v + Eps) for each channel's variance v.
func (b *BatchNorm) std(variance []float64) []float64 {
	out := make([]float64, len(variance))
	for c, v := range variance {
		out[c] = math.Sqrt(v + b.Eps)
	}
	return out
}

// step is the layer's arithmetic, g·((x−mean)·(1/std)) + β per channel, as a
// step that owns copies of mean, std, γ and β.
func (b *BatchNorm) step(mean, std []float64) *bnStep {
	st := &bnStep{c: b.C, s: b.S, mean: slices.Clone(mean), invStd: make([]float64, b.C),
		gamma: slices.Clone(b.Gamma.Data), beta: slices.Clone(b.Beta.Data)}
	for c, sd := range std {
		st.invStd[c] = 1 / sd
	}
	return st
}

// Backward implements Layer using the standard batch-norm gradient:
// dx = (gamma/std) · (dy - mean(dy) - x̂·mean(dy·x̂)).
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		panic("nn: BatchNorm.Backward without a training-mode Forward")
	}
	batch := b.lastBatch
	n := float64(batch * b.S)
	out := tensor.New(batch, b.C*b.S)
	for c := 0; c < b.C; c++ {
		sumDy, sumDyXh := 0.0, 0.0
		for bi := 0; bi < batch; bi++ {
			gy := grad.Data[bi*b.C*b.S+c*b.S:]
			xh := b.lastXHat.Data[bi*b.C*b.S+c*b.S:]
			for s := 0; s < b.S; s++ {
				sumDy += gy[s]
				sumDyXh += gy[s] * xh[s]
			}
		}
		b.GBeta.Data[c] += sumDy
		b.GGamma.Data[c] += sumDyXh
		k := b.Gamma.Data[c] / b.lastStd[c]
		meanDy := sumDy / n
		meanDyXh := sumDyXh / n
		for bi := 0; bi < batch; bi++ {
			gy := grad.Data[bi*b.C*b.S+c*b.S:]
			xh := b.lastXHat.Data[bi*b.C*b.S+c*b.S:]
			dst := out.Data[bi*b.C*b.S+c*b.S:]
			for s := 0; s < b.S; s++ {
				dst[s] = k * (gy[s] - meanDy - xh[s]*meanDyXh)
			}
		}
	}
	return out
}

// Params implements ParamLayer (trainable parameters only; running
// statistics are exposed via State).
func (b *BatchNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{b.Gamma, b.Beta} }

// Grads implements ParamLayer.
func (b *BatchNorm) Grads() []*tensor.Tensor { return []*tensor.Tensor{b.GGamma, b.GBeta} }

// State implements Stateful, exposing the running statistics so snapshots
// capture inference behaviour exactly.
func (b *BatchNorm) State() []*tensor.Tensor { return []*tensor.Tensor{b.RunMean, b.RunVar} }
