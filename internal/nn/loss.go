package nn

import (
	"math"

	"github.com/teamnet/teamnet/internal/tensor"
)

// SoftmaxCrossEntropy computes the fused softmax + cross-entropy loss used
// by every classifier in this repository (the paper's Algorithm 3 objective
// Σ_c y log f(x; θ_i)).
//
// Fusing the two keeps the gradient numerically exact: dL/dlogits =
// (softmax(logits) - onehot(y)) / batch.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, probs, grad *tensor.Tensor) {
	batch, classes := logits.Shape[0], logits.Shape[1]
	if batch != len(labels) {
		panic("nn: label count does not match batch")
	}
	probs = tensor.SoftmaxRows(logits)
	grad = probs.Clone()
	inv := 1 / float64(batch)
	for i, y := range labels {
		p := probs.At(i, y)
		loss -= math.Log(math.Max(p, 1e-300))
		grad.Data[i*classes+y] -= 1
	}
	loss *= inv
	grad.ScaleInPlace(inv)
	return loss, probs, grad
}
