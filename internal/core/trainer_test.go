package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// smallDigits returns a quick, learnable digit set for training tests.
func smallDigits(n int, seed int64) *dataset.Dataset {
	return dataset.Digits(dataset.DigitsConfig{N: n, H: 12, W: 12, Seed: seed})
}

func smallConfig(k int) Config {
	return Config{
		K: k,
		ExpertSpec: nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{
			Label: "MLP-2", Input: 144, Width: 32, Layers: 2, Classes: 10,
		}},
		Epochs:    3,
		BatchSize: 40,
		Seed:      7,
	}
}

func TestConfigValidateDefaults(t *testing.T) {
	cfg := smallConfig(2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Gain <= 0 || cfg.GateLR <= 0 || cfg.LatentDim <= 0 || cfg.Epsilon <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cfg := smallConfig(1)
	if err := cfg.Validate(); err == nil {
		t.Fatal("K=1 accepted")
	}
	cfg = smallConfig(2)
	cfg.Gain = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("gain 1.5 accepted")
	}
}

func TestNewTrainerExpertsDifferentInit(t *testing.T) {
	tr, err := NewTrainer(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	e := tr.experts
	if len(e) != 2 {
		t.Fatalf("expert count %d", len(e))
	}
	if e[0].Params()[0].Equal(e[1].Params()[0]) {
		t.Fatal("experts initialized identically — no initial bias to compete on")
	}
}

func TestGateTrainerReducesObjective(t *testing.T) {
	cfg := smallConfig(2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	gt := newGateTrainer(cfg, rng)
	// A biased entropy matrix with continuous margins, as produced by real
	// experts: expert 0 is less uncertain on ~80% of the batch.
	batch := 200
	h := tensor.New(batch, 2)
	for b := 0; b < batch; b++ {
		h0 := rng.Uniform(0.1, 1.1)
		h.Set(h0, b, 0)
		h.Set(h0+rng.Uniform(-0.1, 0.4), b, 1)
	}
	res := gt.Fit(h)
	gamma0 := res.Gamma[0]
	if gamma0 < 0.7 {
		t.Fatalf("test setup: hard-gate γ₀ = %v, want ≈0.8", gamma0)
	}
	// Controller target for expert 0: 0.5 - a(γ₀-0.5) at a=0.5.
	target0 := 0.5 - cfg.Gain*(gamma0-0.5)
	got := Proportions(res.Assignment, 2)[0]
	if math.Abs(got-target0) > 0.1 {
		t.Fatalf("dynamic gate gave γ̄₀ = %v; controller target %v (γ₀ = %v)", got, target0, gamma0)
	}
	if res.Sharpness <= 0 {
		t.Fatal("meta-estimator returned non-positive sharpness")
	}
	if len(res.Delta) != 2 || res.Delta[0] <= 0 || res.Delta[1] <= 0 {
		t.Fatalf("bad delta %v", res.Delta)
	}
}

func TestTrainConvergesToEqualPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	ds := smallDigits(400, 11)
	cfg := smallConfig(2)
	cfg.Epochs = 60
	cfg.ExpertLR = 0.05
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	team, hist := tr.Train(ds)
	if team.K() != 2 {
		t.Fatalf("team K = %d", team.K())
	}
	if len(hist.Stats) != 600 { // 400/40 batches × 60 epochs
		t.Fatalf("iteration count %d", len(hist.Stats))
	}
	// Appendix A: cumulative share converges toward 1/K. (Convergence is
	// O(1/L) in the iteration count, so allow a band — the paper's own
	// Figure 6 needs ~12000 iterations to settle exactly.)
	final := hist.FinalCumulative()
	for i, c := range final {
		if math.Abs(c-0.5) > 0.12 {
			t.Fatalf("expert %d cumulative share %v, want ≈0.5 (all: %v)", i, c, final)
		}
	}
	// The per-batch proportion (the paper's plotted quantity) must hover at
	// the set point in the second half of training.
	half := hist.Stats[len(hist.Stats)/2:]
	dev := 0.0
	for _, s := range half {
		for _, p := range s.Proportions {
			dev += math.Abs(p - 0.5)
		}
	}
	dev /= float64(len(half) * 2)
	if dev > 0.15 {
		t.Fatalf("late-training per-batch deviation %v > 0.15", dev)
	}
}

func TestStaticGateAblationSkewsPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	ds := smallDigits(400, 13)

	run := func(static bool) []float64 {
		cfg := smallConfig(2)
		cfg.Epochs = 40
		cfg.ExpertLR = 0.05
		cfg.StaticGate = static
		cfg.Seed = 17
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, hist := tr.Train(ds)
		return hist.FinalCumulative()
	}
	dynamic := run(false)
	static := run(true)
	skew := func(c []float64) float64 {
		s := 0.0
		for _, v := range c {
			s += math.Abs(v - 0.5)
		}
		return s
	}
	// The controller must leave partitions at least as balanced as the
	// richer-gets-richer baseline, and close to the set point.
	if skew(dynamic) > skew(static)+0.02 {
		t.Fatalf("dynamic gate (skew %v) worse than static (skew %v)", skew(dynamic), skew(static))
	}
	if skew(dynamic) > 0.15 {
		t.Fatalf("dynamic skew %v too large (cumulative %v)", skew(dynamic), dynamic)
	}
}

func TestTrainedTeamBeatsChance(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	ds := smallDigits(600, 19)
	train, test := ds.Split(0.8, tensor.NewRNG(1))
	cfg := smallConfig(2)
	cfg.Epochs = 8
	cfg.ExpertLR = 0.05
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	team, _ := tr.Train(train)
	acc := team.Accuracy(test.X, test.Y)
	if acc < 0.5 {
		t.Fatalf("team accuracy %v — barely above 10%% chance", acc)
	}
}

func TestHistoryConvergedWithin(t *testing.T) {
	h := newHistory(2)
	// Fake three iterations: skewed, skewed, balanced-forever.
	h.record(0, GateResult{Assignment: []int{0, 0, 0, 0}}, nil, 4)
	h.record(1, GateResult{Assignment: []int{1, 1, 1, 1}}, nil, 4)
	h.record(2, GateResult{Assignment: []int{0, 1, 0, 1}}, nil, 4)
	if got := h.ConvergedWithin(0.05); got != 1 {
		t.Fatalf("ConvergedWithin = %d, want 1 (cumulative hits 0.5 from iteration 1)", got)
	}
	if got := h.ConvergedWithin(1e-9); got != 1 {
		t.Fatalf("tight tolerance = %d", got)
	}
	h2 := newHistory(2)
	h2.record(0, GateResult{Assignment: []int{0, 0, 0, 0}}, nil, 4)
	if got := h2.ConvergedWithin(0.05); got != -1 {
		t.Fatalf("never-converged = %d, want -1", got)
	}
}

func TestTeamSaveLoadRoundTrip(t *testing.T) {
	cfg := smallConfig(2)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDigits(80, 23)
	team, _ := tr.Train(ds)

	var buf bytes.Buffer
	if err := team.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTeam(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != team.K() || loaded.Classes != team.Classes {
		t.Fatalf("bundle header mismatch: K=%d classes=%d", loaded.K(), loaded.Classes)
	}
	x := ds.X.SelectRows([]int{0, 1, 2})
	p1, w1 := team.Predict(x)
	p2, w2 := loaded.Predict(x)
	if !p1.AllClose(p2, 1e-12) {
		t.Fatal("loaded team predicts differently")
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("loaded team picks different winners")
		}
	}
}

func TestLoadTeamRejectsGarbage(t *testing.T) {
	if _, err := LoadTeam(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPredictCombinesWinningExpertRows(t *testing.T) {
	// Hand-build a 2-expert team where winners are knowable: expert 0 is a
	// near-deterministic classifier (low entropy), expert 1 is uniform
	// (max entropy). Arg-min must always pick expert 0.
	rng := tensor.NewRNG(31)
	spec := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 4, Width: 4, Layers: 2, Classes: 3}}
	confident, _ := spec.Build(rng)
	// Scale the final layer hard to make outputs confident.
	params := confident.Params()
	params[len(params)-2].ScaleInPlace(50)
	uniform, _ := spec.Build(rng)
	for _, p := range uniform.Params() {
		p.Zero() // all-zero weights → uniform softmax
	}
	team := &Team{Experts: []*nn.Network{confident, uniform}, Spec: spec, Classes: 3}
	x := rng.Randn(6, 4)
	probs, winners := team.Predict(x)
	for i, w := range winners {
		if w != 0 {
			t.Fatalf("sample %d chose the uniform expert", i)
		}
		want := confident.Predict(x.SelectRows([]int{i}))
		if !probs.Row(i).AllClose(want.Row(0), 1e-12) {
			t.Fatal("combined probs are not the winner's probs")
		}
	}
}

func TestSpecializationMatrixColumnsSumToOne(t *testing.T) {
	ds := smallDigits(200, 37)
	tr, err := NewTrainer(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	team, _ := tr.Train(ds)
	m := team.SpecializationMatrix(ds)
	if m.Shape[0] != 2 || m.Shape[1] != 10 {
		t.Fatalf("matrix shape %v", m.Shape)
	}
	for c := 0; c < 10; c++ {
		sum := 0.0
		for e := 0; e < 2; e++ {
			sum += m.At(e, c)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("class %d column sums to %v", c, sum)
		}
	}
}

func TestVoteAccuracyRuns(t *testing.T) {
	ds := smallDigits(100, 41)
	tr, err := NewTrainer(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	team, _ := tr.Train(ds)
	if acc := team.VoteAccuracy(ds.X, ds.Y); acc < 0 || acc > 1 {
		t.Fatalf("vote accuracy %v out of range", acc)
	}
}

func TestTrainExpertsSkipsEmptyPartition(t *testing.T) {
	cfg := smallConfig(2)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDigits(20, 43)
	batch := ds.Batches(20, tensor.NewRNG(0))[0]
	// Assign everything to expert 0; expert 1 must remain untouched.
	assign := make([]int, 20)
	before := tr.experts[1].Params()[0].Clone()
	losses := tr.trainExperts(batch, assign)
	if !tr.experts[1].Params()[0].Equal(before) {
		t.Fatal("unassigned expert was updated")
	}
	if losses[0] <= 0 || losses[1] != 0 {
		t.Fatalf("losses %v", losses)
	}
}

func TestAccuracyEmptyInputs(t *testing.T) {
	team := &Team{Classes: 2}
	if team.Accuracy(tensor.New(0, 1), nil) != 0 {
		t.Fatal("empty accuracy not 0")
	}
}
