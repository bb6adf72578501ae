package nn

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Range execution and per-layer cost profiling for partial offload
// (internal/split). A snapshot's compiled steps are position-independent —
// each step reads only its input slice and validates its own width — so any
// contiguous slice steps[from:to] executes under the same zero-alloc,
// bit-exact contract as the full pass: ForwardRange(ForwardRange(x, 0, s),
// s, N) is bitwise-identical to Forward(x) for every boundary s. The static
// per-boundary FLOP/width profile computed once at build (LayerCosts) is
// what the split planner combines with live link and compute measurements
// to choose the split point.

// LayerCost is the static cost profile of one compiled step: its per-sample
// FLOP count (LayerFLOPs of its layer) and its input/output
// activation widths. A width of -1 means the width is not determined by the
// architecture alone (only possible for width-preserving steps at the very
// edge of a network with no fixed-width step to anchor them).
type LayerCost struct {
	Index    int     // position in the compiled step sequence
	Name     string  // step kind: dense, conv, batchnorm, relu, ...
	FLOPs    float64 // per-sample forward cost
	InWidth  int     // per-sample activation width entering the step
	OutWidth int     // per-sample activation width leaving the step
}

// Steps returns the number of compiled steps; valid split boundaries are
// 0..Steps() inclusive (0 = ship the raw input, Steps() = fully local).
func (s *Snapshot) Steps() int { return len(s.steps) }

// LayerCosts returns a copy of the per-step cost profile computed at build
// time. len(LayerCosts()) == Steps().
func (s *Snapshot) LayerCosts() []LayerCost {
	return append([]LayerCost(nil), s.costs...)
}

// FLOPs returns the per-sample forward cost of steps [from, to): the work a
// peer does finishing a tail from boundary from, when to == Steps().
func (s *Snapshot) FLOPs(from, to int) float64 {
	total := 0.0
	for _, c := range s.costs[from:to] {
		total += c.FLOPs
	}
	return total
}

// BoundaryWidth returns the per-sample activation width crossing boundary
// i: the input width of step i, or the final output width for i ==
// Steps(). Returns -1 when the architecture does not pin the width.
func (s *Snapshot) BoundaryWidth(i int) int {
	if i < 0 || i > len(s.steps) {
		panic(fmt.Sprintf("nn: Snapshot.BoundaryWidth %d out of range 0..%d", i, len(s.steps)))
	}
	return s.widths[i]
}

// ForwardRange runs the contiguous step slice [from, to) on a
// [batch, width] activation tensor and returns the resulting activations
// in a new tensor. ForwardRange(x, 0, Steps()) is equivalent to
// Forward(x); chaining a head range into a tail range is bit-identical to
// the full pass. Panics (like Forward) on a shape mismatch or an
// out-of-range boundary. Safe to call concurrently.
func (s *Snapshot) ForwardRange(x *tensor.Tensor, from, to int) *tensor.Tensor {
	batch, width := snapshotInputDims(x)
	s.checkRange(from, to, width)
	ar := s.arenas.Get().(*arena)
	defer s.release(ar)
	out, w := runSteps(ar, s.steps[from:to], x.Data, batch, width)
	res := tensor.New(batch, w)
	copy(res.Data, out)
	return res
}

func (s *Snapshot) checkRange(from, to, width int) {
	if from < 0 || to < from || to > len(s.steps) {
		panic(fmt.Sprintf("nn: Snapshot step range [%d, %d) outside 0..%d", from, to, len(s.steps)))
	}
	if want := s.widths[from]; want >= 0 && width != want {
		panic(fmt.Sprintf("nn: Snapshot input width %d != boundary %d width %d", width, from, want))
	}
}

// profileSteps resolves the activation width at every step boundary and the
// per-step FLOP cost, LayerFLOPs of the layer step i was compiled from.
// Widths flow forward from fixed-width steps (dense, conv, batchnorm,
// pools); a trailing backward pass fills leading width-preserving steps
// (activations before any anchored step) from the first anchored boundary.
func profileSteps(layers []Layer, steps []inferStep) (widths []int, costs []LayerCost) {
	n := len(steps)
	widths = make([]int, n+1)
	w := -1
	for i, st := range steps {
		if f := stepFixedInWidth(st); f >= 0 {
			w = f
		}
		widths[i] = w
		w = stepOutWidth(st, w)
	}
	widths[n] = w
	for i := n - 1; i >= 0; i-- {
		// A boundary still unknown after the forward pass can only precede a
		// width-preserving step, so it inherits the downstream width.
		if widths[i] == -1 && widths[i+1] != -1 {
			widths[i] = widths[i+1]
		}
	}
	costs = make([]LayerCost, n)
	for i, st := range steps {
		costs[i] = LayerCost{
			Index:    i,
			Name:     stepName(st),
			FLOPs:    LayerFLOPs(layers[i]),
			InWidth:  widths[i],
			OutWidth: widths[i+1],
		}
	}
	return widths, costs
}

// stepFixedInWidth returns the input width a step's own parameters pin, or
// -1 for width-preserving steps (activations) that accept any width.
func stepFixedInWidth(st inferStep) int {
	switch s := st.(type) {
	case *denseStep:
		return s.in
	case *bnStep:
		return s.c * s.s
	case *convStep:
		return s.geom.InC * s.geom.InH * s.geom.InW
	case *maxPoolStep:
		return s.c * s.h * s.w
	case *gapStep:
		return s.c * s.sp
	case *blockStep:
		return s.in
	default:
		return -1
	}
}

// stepOutWidth returns a step's output width given input width in (-1
// propagates through width-preserving steps).
func stepOutWidth(st inferStep, in int) int {
	switch s := st.(type) {
	case *denseStep:
		return s.out
	case *bnStep:
		return s.c * s.s
	case *convStep:
		return s.geom.OutC * s.geom.OutH * s.geom.OutW
	case *maxPoolStep:
		return s.c * (s.h / s.k) * (s.w / s.k)
	case *gapStep:
		return s.c
	case *blockStep:
		return s.out
	default:
		return in
	}
}

func stepName(st inferStep) string {
	switch st.(type) {
	case *denseStep:
		return "dense"
	case reluStep:
		return "relu"
	case tanhStep:
		return "tanh"
	case *bnStep:
		return "batchnorm"
	case *convStep:
		return "conv"
	case *maxPoolStep:
		return "maxpool"
	case *gapStep:
		return "gap"
	case *blockStep:
		return "shake"
	default:
		return "step"
	}
}
