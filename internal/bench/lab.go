package bench

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/moe"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Scale selects the experiment size. Accuracy always comes from real
// training; Quick trains reduced datasets and widths so the whole suite
// runs in CI time, Full approaches the paper's training scale. Latency
// modeling always uses the paper-size architectures regardless of scale.
type Scale int

const (
	// Quick is the CI scale: minutes for the whole suite.
	Quick Scale = iota + 1
	// Full is the paper-approaching scale: larger datasets, paper widths.
	Full
)

// Options configures a harness run.
type Options struct {
	Scale Scale
	Seed  int64
}

// DefaultOptions returns the Quick-scale configuration.
func DefaultOptions() Options { return Options{Scale: Quick, Seed: 42} }

// preset bundles the per-scale training knobs.
type preset struct {
	digitsN, digitsHW, digitsEpochs, teamDigitsEpochs       int
	digitsBaseWidth, digitsExpertWidth2, digitsExpertWidth4 int

	objectsN, objectsHW, objectsEpochs, teamObjectsEpochs int
}

func (o Options) preset() preset {
	switch o.Scale {
	case Full:
		return preset{
			digitsN: 4000, digitsHW: 28, digitsEpochs: 30, teamDigitsEpochs: 60,
			digitsBaseWidth: 256, digitsExpertWidth2: 128, digitsExpertWidth4: 64,
			objectsN: 1200, objectsHW: 16, objectsEpochs: 12, teamObjectsEpochs: 16,
		}
	default:
		return preset{
			digitsN: 1000, digitsHW: 14, digitsEpochs: 12, teamDigitsEpochs: 30,
			digitsBaseWidth: 64, digitsExpertWidth2: 48, digitsExpertWidth4: 32,
			objectsN: 800, objectsHW: 12, objectsEpochs: 8, teamObjectsEpochs: 14,
		}
	}
}

// Lab owns the trained artifacts the experiments share, training each at
// most once per run. It is not safe for concurrent use.
type Lab struct {
	Opts Options
	p    preset

	digitsTrain, digitsTest   *dataset.Dataset
	objectsTrain, objectsTest *dataset.Dataset

	digitsBaseline *nn.Network
	digitsTeam     map[int]*core.Team
	digitsHist     map[int]*core.History
	digitsMoE      map[int]*moe.SGMoE

	objectsBaseline *nn.Network
	objectsTeam     map[int]*core.Team
	objectsHist     map[int]*core.History
	objectsMoE      map[int]*moe.SGMoE

	paperNets map[string]*nn.Network
}

// NewLab returns an empty lab for the options.
func NewLab(opts Options) *Lab {
	return newLabWithPreset(opts, opts.preset())
}

// newLabWithPreset lets tests shrink the training knobs below the Quick
// scale while exercising every experiment driver.
func newLabWithPreset(opts Options, p preset) *Lab {
	return &Lab{
		Opts:        opts,
		p:           p,
		digitsTeam:  make(map[int]*core.Team),
		digitsHist:  make(map[int]*core.History),
		digitsMoE:   make(map[int]*moe.SGMoE),
		objectsTeam: make(map[int]*core.Team),
		objectsHist: make(map[int]*core.History),
		objectsMoE:  make(map[int]*moe.SGMoE),
		paperNets:   make(map[string]*nn.Network),
	}
}

// Digits returns the (train, test) split of the synthetic digit dataset.
func (l *Lab) Digits() (*dataset.Dataset, *dataset.Dataset) {
	if l.digitsTrain == nil {
		ds := dataset.Digits(dataset.DigitsConfig{N: l.p.digitsN, H: l.p.digitsHW, W: l.p.digitsHW, Seed: l.Opts.Seed})
		l.digitsTrain, l.digitsTest = ds.Split(0.85, tensor.NewRNG(l.Opts.Seed+1))
	}
	return l.digitsTrain, l.digitsTest
}

// Objects returns the (train, test) split of the synthetic object dataset.
func (l *Lab) Objects() (*dataset.Dataset, *dataset.Dataset) {
	if l.objectsTrain == nil {
		ds := dataset.Objects(dataset.ObjectsConfig{N: l.p.objectsN, H: l.p.objectsHW, W: l.p.objectsHW, Seed: l.Opts.Seed + 2})
		l.objectsTrain, l.objectsTest = ds.Split(0.85, tensor.NewRNG(l.Opts.Seed+3))
	}
	return l.objectsTrain, l.objectsTest
}

// digitsExpertSpec returns the training-scale expert architecture for K.
func (l *Lab) digitsExpertSpec(k int) (nn.Spec, error) {
	train, _ := l.Digits()
	switch k {
	case 2:
		return nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{
			Label: "MLP-4", Input: train.Features(), Width: l.p.digitsExpertWidth2, Layers: 4, Classes: 10,
		}}, nil
	case 4:
		return nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{
			Label: "MLP-2", Input: train.Features(), Width: l.p.digitsExpertWidth4, Layers: 2, Classes: 10,
		}}, nil
	default:
		return nn.Spec{}, fmt.Errorf("bench: digit experts defined for K=2,4; got %d", k)
	}
}

// objectsExpertSpec returns the training-scale CNN expert architecture.
func (l *Lab) objectsExpertSpec(k int) (nn.Spec, error) {
	train, _ := l.Objects()
	switch k {
	case 2:
		return nn.Spec{Kind: "shake", Shake: &nn.ShakeSpec{
			Label: "SS-14", InC: 3, InH: train.H, InW: train.W,
			Widths: []int{5, 8}, BlocksPerStage: 1, Classes: 10,
		}}, nil
	case 4:
		return nn.Spec{Kind: "shake", Shake: &nn.ShakeSpec{
			Label: "SS-8", InC: 3, InH: train.H, InW: train.W,
			Widths: []int{5, 7}, BlocksPerStage: 1, Classes: 10,
		}}, nil
	default:
		return nn.Spec{}, fmt.Errorf("bench: object experts defined for K=2,4; got %d", k)
	}
}

// DigitsBaseline trains (once) the monolithic digit classifier.
func (l *Lab) DigitsBaseline() (*nn.Network, error) {
	if l.digitsBaseline != nil {
		return l.digitsBaseline, nil
	}
	train, _ := l.Digits()
	spec := nn.MLPSpec{Label: "MLP-8", Input: train.Features(), Width: l.p.digitsBaseWidth, Layers: 8, Classes: 10}
	net, err := spec.Build(tensor.NewRNG(l.Opts.Seed + 10))
	if err != nil {
		return nil, err
	}
	trainClassifier(net, train, l.p.digitsEpochs, 64, 0.002, l.Opts.Seed+11)
	l.digitsBaseline = net
	return net, nil
}

// ObjectsBaseline trains (once) the monolithic object classifier.
func (l *Lab) ObjectsBaseline() (*nn.Network, error) {
	if l.objectsBaseline != nil {
		return l.objectsBaseline, nil
	}
	train, _ := l.Objects()
	spec := nn.ShakeSpec{Label: "SS-26", InC: 3, InH: train.H, InW: train.W,
		Widths: []int{6, 10}, BlocksPerStage: 2, Classes: 10}
	net, err := spec.Build(tensor.NewRNG(l.Opts.Seed + 20))
	if err != nil {
		return nil, err
	}
	trainClassifier(net, train, l.p.objectsEpochs, 32, 0.003, l.Opts.Seed+21)
	l.objectsBaseline = net
	return net, nil
}

// DigitsTeam trains (once) a K-expert TeamNet on digits, returning the team
// and its convergence history.
func (l *Lab) DigitsTeam(k int) (*core.Team, *core.History, error) {
	if team, ok := l.digitsTeam[k]; ok {
		return team, l.digitsHist[k], nil
	}
	train, _ := l.Digits()
	spec, err := l.digitsExpertSpec(k)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Config{
		K: k, ExpertSpec: spec,
		Epochs: l.p.teamDigitsEpochs, BatchSize: 50,
		ExpertLR: 0.05, Seed: l.Opts.Seed + int64(30+k),
	}
	tr, err := core.NewTrainer(cfg)
	if err != nil {
		return nil, nil, err
	}
	team, hist := tr.Train(train)
	l.digitsTeam[k] = team
	l.digitsHist[k] = hist
	return team, hist, nil
}

// ObjectsTeam trains (once) a K-expert TeamNet on objects.
func (l *Lab) ObjectsTeam(k int) (*core.Team, *core.History, error) {
	if team, ok := l.objectsTeam[k]; ok {
		return team, l.objectsHist[k], nil
	}
	train, _ := l.Objects()
	spec, err := l.objectsExpertSpec(k)
	if err != nil {
		return nil, nil, err
	}
	// CNN experts need the robust settings: Adam on the batch-normalized
	// Shake-Shake blocks, a warmup epoch of balanced assignment before
	// entropies are trusted, and a floored gate authority (see core.Config).
	warmup := train.Len() / 40
	epochs := l.p.teamObjectsEpochs
	if k == 4 {
		// each expert sees ~1/K of the stream: more passes to converge
		epochs = epochs * 3 / 2
	}
	cfg := core.Config{
		K: k, ExpertSpec: spec,
		Epochs: epochs, BatchSize: 40,
		ExpertLR: 0.003, ExpertOptimizer: "adam",
		WarmupIterations: warmup, DiversityFloor: 0.15,
		BalanceGuard: true, CalibrationPasses: 2,
		Seed: l.Opts.Seed + int64(40+k),
	}
	tr, err := core.NewTrainer(cfg)
	if err != nil {
		return nil, nil, err
	}
	team, hist := tr.Train(train)
	l.objectsTeam[k] = team
	l.objectsHist[k] = hist
	return team, hist, nil
}

// DigitsMoE trains (once) a K-expert SG-MoE on digits with the same expert
// architecture as the TeamNet experts (the paper's controlled comparison).
func (l *Lab) DigitsMoE(k int) (*moe.SGMoE, error) {
	if m, ok := l.digitsMoE[k]; ok {
		return m, nil
	}
	train, _ := l.Digits()
	spec, err := l.digitsExpertSpec(k)
	if err != nil {
		return nil, err
	}
	cfg := moe.Config{
		K: k, ExpertSpec: spec,
		Epochs: l.p.digitsEpochs, BatchSize: 50, LR: 0.002,
		Seed: l.Opts.Seed + int64(50+k),
	}
	m, err := moe.Train(cfg, train)
	if err != nil {
		return nil, err
	}
	l.digitsMoE[k] = m
	return m, nil
}

// ObjectsMoE trains (once) a K-expert SG-MoE on objects.
func (l *Lab) ObjectsMoE(k int) (*moe.SGMoE, error) {
	if m, ok := l.objectsMoE[k]; ok {
		return m, nil
	}
	train, _ := l.Objects()
	spec, err := l.objectsExpertSpec(k)
	if err != nil {
		return nil, err
	}
	cfg := moe.Config{
		K: k, ExpertSpec: spec,
		Epochs: l.p.objectsEpochs, BatchSize: 40, LR: 0.003,
		Seed: l.Opts.Seed + int64(60+k),
	}
	m, err := moe.Train(cfg, train)
	if err != nil {
		return nil, err
	}
	l.objectsMoE[k] = m
	return m, nil
}

// PaperNet builds (once) a paper-size architecture used only by the latency
// cost model. Weights are random — FLOP counts and activation sizes depend
// only on the architecture.
func (l *Lab) PaperNet(name string) (*nn.Network, error) {
	if net, ok := l.paperNets[name]; ok {
		return net, nil
	}
	nets, err := paperNets(name, 1)
	if err != nil {
		return nil, err
	}
	l.paperNets[name] = nets[0]
	return nets[0], nil
}

// paperNets builds n copies of a paper-size architecture, one per rank of a
// recorded run: a layer keeps its input for Backward, so ranks running at
// once cannot share one network.
func paperNets(name string, n int) ([]*nn.Network, error) {
	var spec nn.Spec
	var err error
	switch name {
	case "MLP-8":
		spec = nn.DigitsBaseline(784, 10)
	case "MLP-4":
		spec, err = nn.DigitsExpert(2, 784, 10)
	case "MLP-2":
		spec, err = nn.DigitsExpert(4, 784, 10)
	case "SS-26":
		spec = nn.ObjectsBaseline(3, 32, 32, 10)
	case "SS-14":
		spec, err = nn.ObjectsExpert(2, 3, 32, 32, 10)
	case "SS-8":
		spec, err = nn.ObjectsExpert(4, 3, 32, 32, 10)
	default:
		return nil, fmt.Errorf("bench: unknown paper net %q", name)
	}
	if err != nil {
		return nil, err
	}
	nets := make([]*nn.Network, n)
	for i := range nets {
		if nets[i], err = spec.Build(tensor.NewRNG(1)); err != nil {
			return nil, err
		}
	}
	return nets, nil
}

// paperGate builds the SG-MoE gate over features inputs for k experts: a
// two-layer MLP of width 64.
func paperGate(features, k int) (*nn.Network, error) {
	spec := nn.MLPSpec{Label: "gate", Input: features, Width: 64, Layers: 2, Classes: k}
	return spec.Build(tensor.NewRNG(1))
}

// trainClassifier runs a plain Adam training loop (the baseline and SG-MoE
// reference training path).
func trainClassifier(net *nn.Network, ds *dataset.Dataset, epochs, batch int, lr float64, seed int64) {
	rng := tensor.NewRNG(seed)
	opt := nn.NewAdam(lr)
	for e := 0; e < epochs; e++ {
		for _, b := range ds.Batches(batch, rng) {
			net.ZeroGrads()
			logits := net.Forward(b.X, true)
			_, _, grad := nn.SoftmaxCrossEntropy(logits, b.Y)
			net.Backward(grad)
			nn.ClipGrads(net.Grads(), 5)
			opt.Step(net.Params(), net.Grads())
		}
	}
}
