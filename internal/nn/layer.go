// Package nn is a from-scratch neural-network library built on
// internal/tensor. It provides exactly the model families the TeamNet paper
// evaluates — multi-layer perceptrons and Shake-Shake-regularized
// convolutional networks — together with losses, optimizers and
// serialization.
//
// The library substitutes for TensorFlow/CUDA on the paper's testbed (see
// DESIGN.md §1): it implements forward inference and reverse-mode gradients
// layer-by-layer, which is all that TeamNet's competitive training
// (Algorithms 1–3), the SG-MoE baseline, and the MPI parallelization schemes
// require.
//
// Conventions: activations are rank-2 tensors of shape [batch, features];
// convolutional layers interpret the feature axis as C·H·W in NCHW order.
// Forward must be called before Backward on the same layer instance, and
// layers are not safe for concurrent use (clone networks per goroutine).
package nn

import "github.com/teamnet/teamnet/internal/tensor"

// Layer is one differentiable stage of a network.
type Layer interface {
	// Name identifies the layer kind (and salient dimensions) for logs and
	// serialization sanity checks.
	Name() string
	// Forward computes the layer output for a [batch, features] input.
	// train selects training-time behaviour (dropout masks, batch-norm batch
	// statistics, Shake-Shake random branch mixing).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient of the loss with respect to the
	// layer's output and returns the gradient with respect to its input,
	// accumulating parameter gradients internally.
	Backward(grad *tensor.Tensor) *tensor.Tensor
}

// ParamLayer is a Layer with trainable parameters. Params()[i] corresponds
// to Grads()[i]; optimizers update them pairwise.
type ParamLayer interface {
	Layer
	// Params returns the trainable tensors, aliased (not copied).
	Params() []*tensor.Tensor
	// Grads returns the accumulated gradient tensors, aliased, in the same
	// order as Params.
	Grads() []*tensor.Tensor
}

// Stateful is a Layer carrying non-trainable state that must survive
// serialization (batch-norm running statistics). State tensors are aliased,
// not copied.
type Stateful interface {
	Layer
	State() []*tensor.Tensor
}
