package nn

import (
	"github.com/teamnet/teamnet/internal/tensor"
)

// Network is a sequential container of layers. It is the model type used
// everywhere in the reproduction: TeamNet experts, the SG-MoE experts and
// gate, the monolithic baselines, and TeamNet's internal gate MLP W(z, Θ).
//
// A Network is not safe for concurrent use (layers cache activations for
// the backward pass). For serving, compile a trained network into a frozen
// Snapshot (NewSnapshot), which any number of goroutines can run
// concurrently; the cluster runtime does exactly that.
type Network struct {
	Layers []Layer

	label string
}

// NewNetwork returns a network over the given layers.
func NewNetwork(label string, layers ...Layer) *Network {
	return &Network{Layers: layers, label: label}
}

// Label returns the human-readable model name ("MLP-8", "2xSS-14 expert",
// ...), used in benchmark tables.
func (n *Network) Label() string { return n.label }

// Forward runs the network on a [batch, features] input and returns the
// final activations (logits, for classifiers).
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through all layers in reverse,
// accumulating parameter gradients, and returns the input gradient.
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Predict returns class probabilities (softmax of the logits) in inference
// mode.
func (n *Network) Predict(x *tensor.Tensor) *tensor.Tensor {
	return tensor.SoftmaxRows(n.Forward(x, false))
}

// PredictWithEntropy returns class probabilities together with the
// per-sample predictive entropy H(ŷ|x, θ) — the uncertainty signal at the
// heart of TeamNet (Section IV-A).
func (n *Network) PredictWithEntropy(x *tensor.Tensor) (probs, entropy *tensor.Tensor) {
	probs = n.Predict(x)
	return probs, tensor.EntropyRows(probs)
}

// Params returns all trainable tensors in layer order.
func (n *Network) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			out = append(out, pl.Params()...)
		}
	}
	return out
}

// Grads returns all gradient tensors, index-aligned with Params.
func (n *Network) Grads() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			out = append(out, pl.Grads()...)
		}
	}
	return out
}

// State returns all non-trainable state tensors (batch-norm statistics) in
// layer order.
func (n *Network) State() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.Layers {
		if st, ok := l.(Stateful); ok {
			out = append(out, st.State()...)
		}
	}
	return out
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, g := range n.Grads() {
		g.Zero()
	}
}

// ParamCount returns the total number of trainable scalars, the model-size
// input to the edge-device memory model.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Size()
	}
	return total
}

// SizeBytes returns the deployed model size assuming float32 storage, as on
// the paper's TensorFlow edge runtime.
func (n *Network) SizeBytes() int64 { return int64(n.ParamCount()) * 4 }

// CopyWeightsFrom copies all parameters and state from src, which must have
// an identical architecture. It is how cluster workers clone a trained
// expert per serving goroutine.
func (n *Network) CopyWeightsFrom(src *Network) {
	dp, sp := n.Params(), src.Params()
	if len(dp) != len(sp) {
		panic("nn: CopyWeightsFrom architecture mismatch (param count)")
	}
	for i := range dp {
		dp[i].CopyFrom(sp[i])
	}
	ds, ss := n.State(), src.State()
	if len(ds) != len(ss) {
		panic("nn: CopyWeightsFrom architecture mismatch (state count)")
	}
	for i := range ds {
		ds[i].CopyFrom(ss[i])
	}
}

// Accuracy evaluates classification accuracy of the network on inputs x
// with integer labels y, in inference mode.
func (n *Network) Accuracy(x *tensor.Tensor, y []int) float64 {
	if len(y) == 0 {
		return 0
	}
	probs := n.Predict(x)
	correct := 0
	for i := range y {
		if probs.Row(i).ArgMax() == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}
