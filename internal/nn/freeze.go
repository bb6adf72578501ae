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
// bit-identical to Network.Forward in inference mode by construction. The
// one step with no layer of its own is a Shake-Shake block of convolutions
// (blockStep), whose tiles apply the branch's batch norms and ReLU in the
// same operation order (tensor.Epilogue; TestSnapshotBitMatchesNetwork).
// Per-call scratch comes from a pooled stack arena, so a steady-state
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
// must add a case to compileStep) or a shake-shake block whose branches are
// not conv → batch norm → ReLU → conv → batch norm (compileBlock).
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

// arena is a stack allocator for forward-pass scratch. take hands out
// sub-slices of one backing buffer; a step whose scratch lives only while it
// runs takes it after its output and hands it back with free, in stack
// order, so the next step's slices reuse that memory while it is still in
// cache. When a pass outgrows the buffer the overflow spills to ordinary
// allocations and reset regrows the buffer to the pass's high-water mark, so
// the next pass (and every one after) allocates nothing.
type arena struct {
	buf  []float64
	off  int // elements taken and not freed; past len(buf) once a take spilled
	high int // off's high-water mark since the last reset
}

func (a *arena) take(n int) []float64 {
	lo := a.off
	a.off += n
	a.high = max(a.high, a.off)
	if a.off <= len(a.buf) {
		return a.buf[lo:a.off:a.off]
	}
	return make([]float64, n)
}

// free hands back every slice taken since off read mark.
func (a *arena) free(mark int) { a.off = mark }

func (a *arena) reset() {
	if a.high > len(a.buf) {
		a.buf = make([]float64, a.high)
	}
	a.off, a.high = 0, 0
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
		if st, ok := compileBlock(l); ok {
			return st, nil
		}
	}
	return nil, fmt.Errorf("nn: snapshot cannot compile layer %q", l.Name())
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
	mark := a.off
	c.conv.Forward(out, x, a.take(c.conv.ScratchLen()), batch)
	a.free(mark)
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

// blockStep is a shake-shake block whose branches are each conv → batch
// norm → ReLU → conv → batch norm, compiled into its four convolutions (and
// a skip projection's): each branch's first conv applies its batch norm and
// ReLU in the tile and stores into the second conv's padded input, and the
// second applies its batch norm (tensor.Epilogue) — the operations the
// branch's own steps perform, in their order, so the bits are the same. The
// block input is padded once for both branches, a 1×1 skip reads it in
// place, and the shake mix is the one sweep left. The block's scratch is
// freed once its output is written.
type blockStep struct {
	in, out      int                   // per-row widths
	conv1, conv2 [2]*tensor.DirectConv // per branch; one geometry each
	skip         *tensor.DirectConv    // nil means identity residual
}

// compileBlock compiles l into a blockStep when both branches are conv →
// batch norm → ReLU → conv → batch norm with the same geometries and the
// skip is identity or a convolution; ok is false for any other block, which
// a snapshot cannot compile (every block ShakeSpec builds is of this shape).
func compileBlock(l *ShakeShake) (*blockStep, bool) {
	st := &blockStep{}
	var g1, g2 tensor.ConvGeom // branch 1's, which branch 2 must share
	for i, br := range []*Network{l.Branch1, l.Branch2} {
		if len(br.Layers) != 5 {
			return nil, false
		}
		c1, ok1 := br.Layers[0].(*Conv2D)
		n1, ok2 := br.Layers[1].(*BatchNorm)
		_, ok3 := br.Layers[2].(*ReLU)
		c2, ok4 := br.Layers[3].(*Conv2D)
		n2, ok5 := br.Layers[4].(*BatchNorm)
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !normsConv(n1, c1.Geom) || !normsConv(n2, c2.Geom) ||
			c2.Geom.InC != c1.Geom.OutC || c2.Geom.InH != c1.Geom.OutH || c2.Geom.InW != c1.Geom.OutW ||
			i == 1 && (c1.Geom != g1 || c2.Geom != g2) {
			return nil, false
		}
		g1, g2 = c1.Geom, c2.Geom
		st.conv1[i] = tensor.NewDirectConv(g1, c1.W.Data, c1.B.Data, epilogue(n1, true))
		st.conv2[i] = tensor.NewDirectConv(g2, c2.W.Data, c2.B.Data, epilogue(n2, false))
	}
	st.in, st.out = g1.InC*g1.InH*g1.InW, g2.OutC*g2.OutH*g2.OutW
	switch skip := l.Skip.(type) {
	case nil:
		if st.in != st.out {
			return nil, false
		}
	case *Conv2D:
		if g := skip.Geom; g.InC*g.InH*g.InW != st.in || skip.OutFeatures() != st.out {
			return nil, false
		}
		st.skip = skip.step().conv
	default:
		return nil, false
	}
	return st, true
}

// normsConv reports whether n normalises the output planes of g.
func normsConv(n *BatchNorm, g tensor.ConvGeom) bool { return n.C == g.OutC && n.S == g.OutH*g.OutW }

// epilogue is n's inference step, then ReLU if relu, as a conv tile applies
// them.
func epilogue(n *BatchNorm, relu bool) tensor.Epilogue {
	st := n.step(n.RunMean.Data, n.std(n.RunVar.Data))
	return tensor.Epilogue{Mean: st.mean, InvStd: st.invStd, Gamma: st.gamma, Beta: st.beta, ReLU: relu}
}

func (s *blockStep) run(a *arena, x []float64, batch, width int) ([]float64, int) {
	if width != s.in {
		panic(fmt.Sprintf("nn: shake-shake block input width %d != %d", width, s.in))
	}
	out := a.take(batch * s.out)
	mark := a.off
	xp, mid, y2 := a.take(s.conv1[0].PaddedLen()), a.take(s.conv2[0].PaddedLen()), a.take(s.out)
	var res, skipScratch []float64
	if s.skip != nil {
		res, skipScratch = a.take(s.out), a.take(s.skip.ScratchLen())
	}
	for b := 0; b < batch; b++ {
		xb, ob := x[b*s.in:(b+1)*s.in], out[b*s.out:(b+1)*s.out]
		s.conv1[0].Pad(xp, xb)
		s.conv1[0].ForwardPadded(mid, xp, s.conv2[0])
		s.conv2[0].ForwardPadded(ob, mid, nil)
		s.conv1[1].ForwardPadded(mid, xp, s.conv2[1])
		s.conv2[1].ForwardPadded(y2, mid, nil)
		r := xb
		if s.skip != nil {
			s.skip.Forward(res, xb, skipScratch, 1)
			r = res
		}
		tensor.MixHalvesInto(ob, ob, y2, r) // ShakeShake.Forward's eval mix
	}
	a.free(mark)
	return out, s.out
}
