package core

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Config parameterizes TeamNet training (Algorithm 1). Zero values take the
// documented defaults via Validate.
type Config struct {
	// K is the number of experts (the paper evaluates 2 and 4).
	K int
	// ExpertSpec is the per-expert architecture (one of the zoo specs).
	ExpertSpec nn.Spec
	// Epochs is r of Algorithm 1: how many passes over the data.
	Epochs int
	// BatchSize is the mini-batch size |β|.
	BatchSize int
	// Gain is a of Eq. (4), the proportional-controller gain, in (0, 1).
	Gain float64
	// TargetShares sets per-expert data-share set points w_i (must have
	// length K and sum to 1). Nil means the paper's uniform 1/K. Non-uniform
	// shares realize the conclusion's future-work objective: partitions
	// adapted to imbalanced data or heterogeneous device capacity.
	TargetShares []float64
	// Epsilon is ε of Algorithm 2: the gate objective threshold J ≤ ε.
	Epsilon float64
	// GateLR is η for the gate parameters Θ.
	GateLR float64
	// GateMaxIters bounds Algorithm 2's inner descent per batch.
	GateMaxIters int
	// LatentDim is N, the length of the latent draw z ~ U(-1, 1)^N.
	LatentDim int
	// GateHidden is the hidden width of the latent MLP W(z, Θ).
	GateHidden int
	// ExpertLR is the expert learning rate η of Algorithm 3.
	ExpertLR float64
	// ExpertOptimizer selects the expert update rule: "momentum" (default,
	// the plain descent of Algorithm 3 with momentum) or "adam" (more
	// robust for the batch-normalized Shake-Shake experts).
	ExpertOptimizer string
	// DiversityFloor lower-bounds the Δ that scales the gate's control
	// authority (see GateTrainer.Fit); 0 takes the default.
	DiversityFloor float64
	// WarmupIterations assigns the first W mini-batches round-robin
	// instead of competitively, guaranteeing every expert the gradient
	// flow Figure 1(a)'s "initial random preference" premise assumes
	// before uncertainty estimates are trusted. 0 disables warmup.
	WarmupIterations int
	// BalanceGuard enables the capacity-constrained fallback solver
	// (BalancedAssign) whenever Algorithm 2's descent leaves the gate
	// objective above ε, guaranteeing the controller targets are met each
	// batch. Recommended for CNN experts whose entropy orderings flip en
	// masse early in training.
	BalanceGuard bool
	// CalibrationPasses runs each trained expert over the full training
	// set (forward only, training mode) this many times after Algorithm 1
	// finishes, refreshing batch-norm running statistics on a common data
	// distribution. Without it, the expert that received more data gets
	// better-calibrated statistics and therefore uniformly lower entropy —
	// an arg-min bias unrelated to specialization. No-op for
	// normalization-free experts. 0 disables calibration.
	CalibrationPasses int
	// SharpnessEps is ε of Eq. (6), the meta-estimator's target distance.
	SharpnessEps float64
	// FixedSharpness, when positive, pins the soft-arg-min b and disables
	// the meta-estimator (the BenchmarkAblationMetaEstimator knob).
	FixedSharpness float64
	// StaticGate, when set, replaces the dynamic gate Ḡ with the plain
	// arg-min gate G during training — the "richer gets richer" ablation.
	StaticGate bool
	// Seed makes the whole run deterministic.
	Seed int64
}

// Validate applies defaults and rejects invalid settings.
func (c *Config) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("core: K must be ≥ 2, got %d", c.K)
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.Gain == 0 {
		c.Gain = 0.5
	}
	if c.Gain <= 0 || c.Gain >= 1 {
		return fmt.Errorf("core: gain a must be in (0,1), got %v", c.Gain)
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.02
	}
	if c.GateLR <= 0 {
		c.GateLR = 0.05
	}
	if c.GateMaxIters <= 0 {
		c.GateMaxIters = 40
	}
	if c.LatentDim <= 0 {
		c.LatentDim = 8
	}
	if c.GateHidden <= 0 {
		c.GateHidden = 16
	}
	if c.ExpertLR <= 0 {
		c.ExpertLR = 0.01
	}
	if c.SharpnessEps <= 0 {
		c.SharpnessEps = 0.05
	}
	if c.TargetShares != nil {
		if len(c.TargetShares) != c.K {
			return fmt.Errorf("core: %d target shares for %d experts", len(c.TargetShares), c.K)
		}
		sum := 0.0
		for i, w := range c.TargetShares {
			if w <= 0 {
				return fmt.Errorf("core: target share %d is %v, must be positive", i, w)
			}
			sum += w
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("core: target shares sum to %v, want 1", sum)
		}
	}
	switch c.ExpertOptimizer {
	case "":
		c.ExpertOptimizer = "momentum"
	case "momentum", "adam":
	default:
		return fmt.Errorf("core: unknown expert optimizer %q", c.ExpertOptimizer)
	}
	if c.DiversityFloor < 0 {
		c.DiversityFloor = 0
	}
	if c.WarmupIterations < 0 {
		c.WarmupIterations = 0
	}
	if c.CalibrationPasses < 0 {
		c.CalibrationPasses = 0
	}
	return nil
}

// IterationStat records one training iteration (one mini-batch) for the
// convergence analysis of Figures 6 and 8.
type IterationStat struct {
	Iteration   int
	Proportions []float64 // fraction of the batch each expert learned
	Cumulative  []float64 // running fraction over all samples so far
	GateResult  GateResult
	ExpertLoss  []float64 // per-expert cross-entropy on its partition (NaN-free; 0 if unassigned)
}

// History accumulates IterationStats across a training run.
type History struct {
	K     int
	Stats []IterationStat

	assignedTotal []float64
	samplesTotal  float64
}

func newHistory(k int) *History { return &History{K: k, assignedTotal: make([]float64, k)} }

func (h *History) record(iter int, res GateResult, losses []float64, batchLen int) {
	props := Proportions(res.Assignment, h.K)
	for i, p := range props {
		h.assignedTotal[i] += p * float64(batchLen)
	}
	h.samplesTotal += float64(batchLen)
	cum := make([]float64, h.K)
	for i := range cum {
		cum[i] = h.assignedTotal[i] / h.samplesTotal
	}
	h.Stats = append(h.Stats, IterationStat{
		Iteration:   iter,
		Proportions: props,
		Cumulative:  cum,
		GateResult:  res,
		ExpertLoss:  losses,
	})
}

// FinalCumulative returns the cumulative per-expert data share at the end
// of training, the quantity Appendix A proves converges to 1/K.
func (h *History) FinalCumulative() []float64 {
	if len(h.Stats) == 0 {
		return make([]float64, h.K)
	}
	return h.Stats[len(h.Stats)-1].Cumulative
}

// ConvergedWithin reports the first iteration after which every expert's
// cumulative share stays within tol of 1/K, or -1 if never.
func (h *History) ConvergedWithin(tol float64) int {
	setPoint := 1 / float64(h.K)
	for s := range h.Stats {
		ok := true
		for t := s; t < len(h.Stats); t++ {
			for _, c := range h.Stats[t].Cumulative {
				if c < setPoint-tol || c > setPoint+tol {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return h.Stats[s].Iteration
		}
	}
	return -1
}

// Trainer drives TeamNet training.
type Trainer struct {
	cfg     Config
	experts []*nn.Network
	opts    []nn.Optimizer
	gate    *GateTrainer
	rng     *tensor.RNG
}

// NewTrainer builds K randomly-initialized experts from cfg.ExpertSpec and
// the gate trainer. Each expert gets an independent weight draw — the
// initial "random biases" that competitive learning then amplifies into
// specialization (Figure 1a).
func NewTrainer(cfg Config) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	experts := make([]*nn.Network, cfg.K)
	opts := make([]nn.Optimizer, cfg.K)
	for i := range experts {
		e, err := cfg.ExpertSpec.Build(rng.Split(int64(i + 1)))
		if err != nil {
			return nil, fmt.Errorf("core: build expert %d: %w", i, err)
		}
		experts[i] = e
		if cfg.ExpertOptimizer == "adam" {
			opts[i] = nn.NewAdam(cfg.ExpertLR)
		} else {
			opts[i] = nn.NewMomentum(cfg.ExpertLR, 0.9)
		}
	}
	return &Trainer{
		cfg:     cfg,
		experts: experts,
		opts:    opts,
		gate:    newGateTrainer(cfg, rng.Split(-1)),
		rng:     rng.Split(-2),
	}, nil
}

// Train runs Algorithm 1: for each of r epochs, reshuffle the data, and for
// each mini-batch evaluate the entropy matrix, fit the gate Ḡ (Algorithm 2),
// and update each expert on its partition (Algorithm 3). It returns the
// trained team and the per-iteration history.
func (t *Trainer) Train(ds *dataset.Dataset) (*Team, *History) {
	hist := newHistory(t.cfg.K)
	iter := 0
	for epoch := 0; epoch < t.cfg.Epochs; epoch++ {
		for _, batch := range ds.Batches(t.cfg.BatchSize, t.rng) {
			res := t.trainBatch(batch, iter)
			losses := t.trainExperts(batch, res.Assignment)
			hist.record(iter, res, losses, len(batch.Y))
			iter++
		}
	}
	t.calibrate(ds)
	return &Team{Experts: t.experts, Spec: t.cfg.ExpertSpec, Classes: ds.Classes}, hist
}

// calibrate refreshes every expert's batch-norm running statistics on the
// full training distribution (see Config.CalibrationPasses).
func (t *Trainer) calibrate(ds *dataset.Dataset) {
	for pass := 0; pass < t.cfg.CalibrationPasses; pass++ {
		for _, batch := range ds.Batches(t.cfg.BatchSize, t.rng) {
			for _, e := range t.experts {
				if len(e.State()) == 0 {
					break // normalization-free architecture: nothing to calibrate
				}
				e.Forward(batch.X, true)
			}
		}
	}
}

// trainBatch computes H for the batch and fits the gate. During warmup the
// batch is dealt round-robin instead: competition only starts once every
// expert has seen enough gradient flow for its uncertainty to mean
// something.
func (t *Trainer) trainBatch(batch dataset.Batch, iter int) GateResult {
	if iter < t.cfg.WarmupIterations {
		assign := warmupAssign(len(batch.Y), t.cfg.K, t.cfg.TargetShares)
		gamma := Proportions(assign, t.cfg.K)
		return GateResult{
			Assignment: assign,
			Delta:      ones(t.cfg.K),
			Gamma:      gamma,
			GammaBar:   gamma,
		}
	}
	h, _ := EntropyMatrix(t.experts, batch.X)
	if t.cfg.StaticGate {
		assign := HardGate(h)
		gamma := Proportions(assign, t.cfg.K)
		return GateResult{
			Assignment: assign,
			Delta:      ones(t.cfg.K),
			Gamma:      gamma,
			GammaBar:   gamma,
			Sharpness:  0,
		}
	}
	return t.gate.Fit(h)
}

// trainExperts is Algorithm 3: each expert takes one gradient step on the
// sub-batch the gate assigned to it. Experts with an empty partition this
// batch are skipped ("no expert learns from all data examples in β").
func (t *Trainer) trainExperts(batch dataset.Batch, assign []int) []float64 {
	losses := make([]float64, t.cfg.K)
	for i := 0; i < t.cfg.K; i++ {
		var idx []int
		for x, a := range assign {
			if a == i {
				idx = append(idx, x)
			}
		}
		if len(idx) == 0 {
			continue
		}
		x := batch.X.SelectRows(idx)
		y := make([]int, len(idx))
		for j, xi := range idx {
			y[j] = batch.Y[xi]
		}
		e := t.experts[i]
		e.ZeroGrads()
		logits := e.Forward(x, true)
		loss, _, grad := nn.SoftmaxCrossEntropy(logits, y)
		e.Backward(grad)
		nn.ClipGrads(e.Grads(), 5)
		t.opts[i].Step(e.Params(), e.Grads())
		losses[i] = loss
	}
	return losses
}

// warmupAssign deals n samples across k experts proportionally to shares
// (uniform when shares is nil) by always giving the next sample to the
// expert with the largest remaining deficit.
func warmupAssign(n, k int, shares []float64) []int {
	if shares == nil {
		out := make([]int, n)
		for i := range out {
			out[i] = i % k
		}
		return out
	}
	out := make([]int, n)
	counts := make([]float64, k)
	for i := 0; i < n; i++ {
		best, bi := -1.0, 0
		for j := 0; j < k; j++ {
			deficit := shares[j]*float64(i+1) - counts[j]
			if deficit > best {
				best, bi = deficit, j
			}
		}
		out[i] = bi
		counts[bi]++
	}
	return out
}

func ones(k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = 1
	}
	return out
}
