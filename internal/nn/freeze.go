package nn

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Inference snapshots: a Snapshot is a frozen, read-only compilation of a
// trained Network that many goroutines can run Forward on concurrently.
// Each layer kind's inference arithmetic is written once, as a step: a
// layer's Forward builds its step from the live parameters and runs it
// (runStep), and compilation builds the same step from private copies of
// every parameter and running statistic — so later training steps on the
// source network never race with serving, and Snapshot outputs are
// bit-identical to Network.Forward in inference mode by construction.
// Per-call scratch comes from a pooled bump arena, so a steady-state
// snapshot forward pass performs zero heap allocations.

// Snapshot is a frozen inference-only view of a Network, safe for
// concurrent Forward/Predict calls. Build one with NewSnapshot after
// training (or loading) a network.
type Snapshot struct {
	label  string
	steps  []inferStep
	widths []int       // activation width at each step boundary (len steps+1)
	costs  []LayerCost // static per-step profile, computed once at build
	arenas sync.Pool   // *arena
}

// NewSnapshot compiles n into a frozen snapshot. It returns an error if the
// network contains a layer type the compiler does not know (new layer types
// must add a case to compileStep).
func NewSnapshot(n *Network) (*Snapshot, error) {
	if n == nil {
		return nil, fmt.Errorf("nn: NewSnapshot of nil network")
	}
	steps, err := compileSteps(n.Layers)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{label: n.label, steps: steps}
	s.widths, s.costs = profileSteps(n.Layers, steps)
	s.arenas.New = func() any { return &arena{} }
	return s, nil
}

// MustSnapshot is NewSnapshot panicking on error, for call sites where an
// uncompilable network is a programmer error (every layer in this
// repository compiles).
func MustSnapshot(n *Network) *Snapshot {
	s, err := NewSnapshot(n)
	if err != nil {
		panic(err)
	}
	return s
}

// Label returns the source network's label.
func (s *Snapshot) Label() string { return s.label }

// Forward runs the snapshot on a [batch, features] input and returns the
// final activations in a new tensor. Safe to call concurrently.
func (s *Snapshot) Forward(x *tensor.Tensor) *tensor.Tensor {
	batch, width := snapshotInputDims(x)
	ar := s.arenas.Get().(*arena)
	defer s.release(ar)
	out, w := runSteps(ar, s.steps, x.Data, batch, width)
	res := tensor.New(batch, w)
	copy(res.Data, out)
	return res
}

// ForwardInto runs the snapshot writing the final activations into dst,
// which must already have the output shape [batch, outFeatures]. This is
// the zero-allocation entry point: with a warmed-up snapshot it performs no
// heap allocation. Safe to call concurrently (with distinct dst).
func (s *Snapshot) ForwardInto(dst, x *tensor.Tensor) {
	batch, width := snapshotInputDims(x)
	ar := s.arenas.Get().(*arena)
	defer s.release(ar)
	out, w := runSteps(ar, s.steps, x.Data, batch, width)
	if len(dst.Shape) != 2 || dst.Shape[0] != batch || dst.Shape[1] != w {
		panic(fmt.Sprintf("nn: Snapshot.ForwardInto dst shape %v != [%d %d]", dst.Shape, batch, w))
	}
	copy(dst.Data, out)
}

// Predict returns class probabilities (softmax of the logits), the
// snapshot counterpart of Network.Predict. Safe to call concurrently.
func (s *Snapshot) Predict(x *tensor.Tensor) *tensor.Tensor {
	probs := s.Forward(x)
	tensor.SoftmaxRowsInto(probs.Data, probs.Data, probs.Shape[0], probs.Shape[1])
	return probs
}

// PredictWithEntropy returns class probabilities and per-sample predictive
// entropy, the snapshot counterpart of Network.PredictWithEntropy. Safe to
// call concurrently.
func (s *Snapshot) PredictWithEntropy(x *tensor.Tensor) (probs, entropy *tensor.Tensor) {
	probs = s.Predict(x)
	return probs, tensor.EntropyRows(probs)
}

// release resets an arena and returns it to the pool; deferred so that a
// panic on malformed input (the cluster worker turns those into RPC errors)
// cannot leak or corrupt scratch state.
func (s *Snapshot) release(ar *arena) {
	ar.reset()
	s.arenas.Put(ar)
}

func snapshotInputDims(x *tensor.Tensor) (batch, width int) {
	if len(x.Shape) != 2 {
		panic(fmt.Sprintf("nn: Snapshot input must be rank-2, got shape %v", x.Shape))
	}
	return x.Shape[0], x.Shape[1]
}

// arena is a bump allocator for forward-pass scratch. take hands out
// sub-slices of one backing buffer; when a pass outgrows the buffer the
// overflow spills to ordinary allocations and reset regrows the buffer to
// the high-water mark, so the next pass (and every one after) allocates
// nothing.
type arena struct {
	buf      []float64
	off      int
	overflow [][]float64
	padded   []float64 // convPadded's buffer, kept across passes
}

func (a *arena) take(n int) []float64 {
	if a.off+n <= len(a.buf) {
		s := a.buf[a.off : a.off+n : a.off+n]
		a.off += n
		return s
	}
	blk := make([]float64, n)
	a.overflow = append(a.overflow, blk)
	return blk
}

// convPadded returns the n-element padded-image scratch of a conv step.
// Every conv step of every pass shares one buffer: steps run one at a time,
// and DirectConv.Forward writes each element it reads, so what the last
// conv left there does not matter — and one hot buffer stays in cache where
// a fresh arena slice per conv would not.
func (a *arena) convPadded(n int) []float64 {
	if len(a.padded) < n {
		a.padded = make([]float64, n)
	}
	return a.padded[:n]
}

func (a *arena) reset() {
	if len(a.overflow) > 0 {
		need := a.off
		for _, blk := range a.overflow {
			need += len(blk)
		}
		a.buf = make([]float64, need)
		a.overflow = nil
	}
	a.off = 0
}

// inferStep is one compiled layer. run consumes a [batch, width] row-major
// activation slice and returns the output activations (arena-backed or the
// input itself for identity steps) with their per-row width.
type inferStep interface {
	run(a *arena, x []float64, batch, width int) ([]float64, int)
}

func runSteps(a *arena, steps []inferStep, x []float64, batch, width int) ([]float64, int) {
	for _, st := range steps {
		x, width = st.run(a, x, batch, width)
	}
	return x, width
}

func compileSteps(layers []Layer) ([]inferStep, error) {
	steps := make([]inferStep, len(layers))
	for i, l := range layers {
		st, err := compileStep(l)
		if err != nil {
			return nil, err
		}
		steps[i] = st
	}
	return steps, nil
}

// compileStep freezes a layer into the step its inference Forward runs,
// with private copies of the parameters (a conv step's packed weights and a
// batch-norm step's statistics are copies already).
func compileStep(l Layer) (inferStep, error) {
	switch l := l.(type) {
	case *Dense:
		st := l.step()
		st.w, st.b = slices.Clone(st.w), slices.Clone(st.b)
		return st, nil
	case *ReLU:
		return reluStep{}, nil
	case *Tanh:
		return tanhStep{}, nil
	case *BatchNorm:
		return l.step(l.RunMean.Data, l.std(l.RunVar.Data)), nil
	case *Conv2D:
		return l.step(), nil
	case *MaxPool2D:
		return l.step(), nil
	case *GlobalAvgPool:
		return l.step(), nil
	case *ShakeShake:
		b1, err := compileSteps(l.Branch1.Layers)
		if err != nil {
			return nil, err
		}
		b2, err := compileSteps(l.Branch2.Layers)
		if err != nil {
			return nil, err
		}
		st := &shakeStep{b1: b1, b2: b2}
		if l.Skip != nil {
			skip, err := compileStep(l.Skip)
			if err != nil {
				return nil, err
			}
			st.skip = skip
		}
		return st, nil
	default:
		return nil, fmt.Errorf("nn: snapshot cannot compile layer %q", l.Name())
	}
}

// runStep runs one step on a whole [batch, width] tensor into a new one: how
// a layer's Forward runs the arithmetic its snapshot step runs.
func runStep(st inferStep, x *tensor.Tensor) *tensor.Tensor {
	batch, width := snapshotInputDims(x)
	out, w := st.run(&arena{}, x.Data, batch, width)
	return tensor.FromSlice(out, batch, w)
}

type denseStep struct {
	w, b    []float64
	in, out int
}

func (d *denseStep) run(a *arena, x []float64, batch, width int) ([]float64, int) {
	if width != d.in {
		panic(fmt.Sprintf("nn: dense input width %d != %d", width, d.in))
	}
	out := a.take(batch * d.out)
	clear(out)
	tensor.GEMMAcc(out, x, d.w, batch, d.in, d.out)
	tensor.AddBias(out, d.b)
	return out, d.out
}

type reluStep struct{}

func (reluStep) run(a *arena, x []float64, batch, width int) ([]float64, int) {
	out := a.take(batch * width)
	tensor.ReLUInto(out, x[:batch*width])
	return out, width
}

type tanhStep struct{}

func (tanhStep) run(a *arena, x []float64, batch, width int) ([]float64, int) {
	out := a.take(batch * width)
	for i, v := range x[:batch*width] {
		out[i] = math.Tanh(v)
	}
	return out, width
}

// bnStep normalises each channel plane with its mean and 1/std, then scales
// and shifts it: the running statistics at inference, the batch's in a
// training forward.
type bnStep struct {
	c, s                      int
	mean, invStd, gamma, beta []float64
}

func (b *bnStep) run(a *arena, x []float64, batch, width int) ([]float64, int) {
	if width != b.c*b.s {
		panic(fmt.Sprintf("nn: batchnorm features %d != %d·%d", width, b.c, b.s))
	}
	out := a.take(batch * width)
	for p := 0; p < batch*b.c; p++ {
		c := p % b.c
		tensor.AffineInto(out[p*b.s:(p+1)*b.s], x[p*b.s:(p+1)*b.s], b.mean[c], b.invStd[c], b.gamma[c], b.beta[c])
	}
	return out, width
}

// convStep runs the convolution directly on a zero-padded copy of each
// image (tensor.DirectConv, which also carries the bit-exactness argument):
// the same products as Im2Col × W, in the same increasing patch-position
// order from +0, then the same bias — without the PatchLen-times larger
// patch matrix. The packed weights are a copy taken when the step is built.
type convStep struct {
	geom tensor.ConvGeom
	conv *tensor.DirectConv
}

func (c *convStep) run(a *arena, x []float64, batch, width int) ([]float64, int) {
	g := c.geom
	if width != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("nn: conv input width %d != %d·%d·%d", width, g.InC, g.InH, g.InW))
	}
	outWidth := g.OutC * g.OutH * g.OutW
	out := a.take(batch * outWidth)
	c.conv.Forward(out, x, a.convPadded(c.conv.ScratchLen()), batch)
	return out, outWidth
}

type maxPoolStep struct {
	c, h, w, k int
}

func (m *maxPoolStep) run(a *arena, x []float64, batch, width int) ([]float64, int) {
	if width != m.c*m.h*m.w {
		panic(fmt.Sprintf("nn: maxpool input width %d != %d·%d·%d", width, m.c, m.h, m.w))
	}
	outWidth := m.c * (m.h / m.k) * (m.w / m.k)
	out := a.take(batch * outWidth)
	tensor.MaxPoolInto(out, x, batch*m.c, m.h, m.w, m.k)
	return out, outWidth
}

type gapStep struct {
	c, sp int
}

func (g *gapStep) run(a *arena, x []float64, batch, width int) ([]float64, int) {
	if width != g.c*g.sp {
		panic(fmt.Sprintf("nn: gap input width %d != %d·%d", width, g.c, g.sp))
	}
	out := a.take(batch * g.c)
	inv := 1 / float64(g.sp)
	for p := range out {
		s := 0.0
		for _, v := range x[p*g.sp : (p+1)*g.sp] {
			s += v
		}
		out[p] = s * inv
	}
	return out, g.c
}

type shakeStep struct {
	b1, b2 []inferStep
	skip   inferStep // nil means identity residual
}

func (s *shakeStep) run(a *arena, x []float64, batch, width int) ([]float64, int) {
	y1, w1 := runSteps(a, s.b1, x, batch, width)
	y2, w2 := runSteps(a, s.b2, x, batch, width)
	if w2 != w1 {
		panic(fmt.Sprintf("nn: snapshot shake-shake branch widths differ: %d vs %d", w1, w2))
	}
	res, rw := x, width
	if s.skip != nil {
		res, rw = s.skip.run(a, x, batch, width)
	}
	if rw != w1 {
		panic(fmt.Sprintf("nn: snapshot shake-shake residual width %d != branch width %d (missing skip projection?)", rw, w1))
	}
	out := a.take(batch * w1)
	tensor.MixHalvesInto(out, y1[:batch*w1], y2, res) // ShakeShake.Forward's eval mix
	return out, w1
}
