// Package teamnet is the public API of this repository: a from-scratch Go
// implementation of "TeamNet: A Collaborative Inference Framework on the
// Edge" (Fang, Jin, Zheng — ICDCS 2019).
//
// TeamNet trains K shallow expert networks by competitive and selective
// learning — a dynamic gate assigns every training sample to the expert
// whose predictive entropy (scaled by controller-fitted coefficients) is
// lowest, while a proportional controller drives each expert's share of the
// data to 1/K. At inference time the experts run in parallel on separate
// edge devices; the prediction with the least predictive entropy wins.
//
// The package re-exports the supported surface of the internal packages:
//
//   - Training: Config / NewTrainer / Team / History (internal/core)
//   - Datasets: synthetic MNIST-like digits and CIFAR-like objects
//     (internal/dataset)
//   - Models: the paper's MLP and Shake-Shake architecture zoo (internal/nn)
//   - Runtime: Worker / Master / ElectLeader — collaborative inference over
//     raw TCP sockets per the paper's Figure 1(d) (internal/cluster)
//   - Baselines: the sparsely-gated mixture-of-experts (internal/moe) and
//     the MPI parallelization schemes (internal/mpi) the paper compares
//     against
//
// See examples/quickstart for the canonical end-to-end flow.
package teamnet

import (
	"io"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/moe"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Training (the paper's Algorithms 1–3).
type (
	// Config parameterizes TeamNet training; see the field documentation in
	// internal/core.Config.
	Config = core.Config
	// Trainer drives competitive training of K experts.
	Trainer = core.Trainer
	// Team is a trained set of experts with the arg-min-entropy combiner.
	Team = core.Team
	// History records per-iteration data shares (Figures 6 and 8).
	History = core.History
	// GateResult reports one Algorithm 2 fit.
	GateResult = core.GateResult
)

// NewTrainer validates cfg and builds K randomly-initialized experts.
func NewTrainer(cfg Config) (*Trainer, error) { return core.NewTrainer(cfg) }

// LoadTeam reads a team bundle written by Team.Save.
func LoadTeam(r io.Reader) (*Team, error) { return core.LoadTeam(r) }

// Datasets (synthetic stand-ins for MNIST and CIFAR-10; see DESIGN.md §1).
type (
	// Dataset is a labelled image set with NCHW-flattened rows.
	Dataset = dataset.Dataset
	// DigitsConfig configures the synthetic digit generator.
	DigitsConfig = dataset.DigitsConfig
	// ObjectsConfig configures the synthetic object generator.
	ObjectsConfig = dataset.ObjectsConfig
)

// Digits generates the MNIST-like synthetic digit dataset.
func Digits(cfg DigitsConfig) *Dataset { return dataset.Digits(cfg) }

// Objects generates the CIFAR-like synthetic object dataset with the
// machines/animals super-category structure of the paper's Figure 9.
func Objects(cfg ObjectsConfig) *Dataset { return dataset.Objects(cfg) }

// LoadMNIST reads real MNIST IDX files (optionally gzipped) into a Dataset;
// maxN > 0 truncates.
func LoadMNIST(imagesPath, labelsPath string, maxN int) (*Dataset, error) {
	return dataset.LoadMNIST(imagesPath, labelsPath, maxN)
}

// LoadCIFAR10 reads real CIFAR-10 binary batch files (optionally gzipped)
// into a Dataset; maxN > 0 truncates.
func LoadCIFAR10(paths []string, maxN int) (*Dataset, error) {
	return dataset.LoadCIFAR10(paths, maxN)
}

// Models.
type (
	// Network is a trained or initialized neural network.
	Network = nn.Network
	// Snapshot is a frozen, concurrency-safe inference compilation of a
	// trained Network (see NewSnapshot).
	Snapshot = nn.Snapshot
	// Spec declaratively describes an architecture (JSON-serializable).
	Spec = nn.Spec
	// MLPSpec describes a multi-layer perceptron.
	MLPSpec = nn.MLPSpec
	// ShakeSpec describes a Shake-Shake-regularized CNN.
	ShakeSpec = nn.ShakeSpec
)

// DigitsBaseline returns the paper's MLP-8 baseline spec.
func DigitsBaseline(inputDim, classes int) Spec { return nn.DigitsBaseline(inputDim, classes) }

// DigitsExpert returns the paper's per-expert spec for K=2 (MLP-4) or
// K=4 (MLP-2) digit teams.
func DigitsExpert(k, inputDim, classes int) (Spec, error) {
	return nn.DigitsExpert(k, inputDim, classes)
}

// ObjectsBaseline returns the paper's SS-26 baseline spec.
func ObjectsBaseline(c, h, w, classes int) Spec { return nn.ObjectsBaseline(c, h, w, classes) }

// ObjectsExpert returns the paper's per-expert spec for K=2 (SS-14) or
// K=4 (SS-8) object teams.
func ObjectsExpert(k, c, h, w, classes int) (Spec, error) {
	return nn.ObjectsExpert(k, c, h, w, classes)
}

// Runtime (Figure 1(d) over raw TCP sockets).
type (
	// Worker serves one expert on an edge node: the runtime's one listening
	// type, here with no peers of its own.
	Worker = cluster.Node
	// Master broadcasts inputs, gathers results, and applies the arg-min
	// gate.
	Master = cluster.Master
)

// NewWorker compiles an expert into a frozen inference snapshot and wraps
// it for serving; any number of requests then run concurrently on the
// snapshot. id is the worker's election identity.
func NewWorker(expert *Network, id int) *Worker { return cluster.NewWorker(expert, id) }

// NewSnapshot compiles a trained network into a frozen inference snapshot
// that any number of goroutines may run concurrently.
func NewSnapshot(n *Network) (*Snapshot, error) { return nn.NewSnapshot(n) }

// NewMaster returns a master with an optional local expert.
func NewMaster(local *Network, classes int) *Master { return cluster.NewMaster(local, classes) }

// ElectLeader runs one bully-election round against the peer set.
func ElectLeader(myID int, peerAddrs []string) (isLeader bool, leaderID int, err error) {
	return cluster.ElectLeader(myID, peerAddrs)
}

// Baseline: sparsely-gated mixture of experts.
type (
	// MoEConfig parameterizes SG-MoE training.
	MoEConfig = moe.Config
	// MoE is a trained sparsely-gated mixture of experts.
	MoE = moe.SGMoE
)

// TrainMoE jointly trains an SG-MoE baseline on ds.
func TrainMoE(cfg MoEConfig, ds *Dataset) (*MoE, error) { return moe.Train(cfg, ds) }

// Evaluation is a confusion-matrix classification report.
type Evaluation = core.Evaluation

// Evaluate builds a classification report from probability rows and labels.
func Evaluate(probs *Tensor, y []int, classNames []string) (*Evaluation, error) {
	return core.Evaluate(probs, y, classNames)
}

// TrainClassifier runs a standard supervised training loop (Adam optimizer,
// softmax cross-entropy) on a single network — the monolithic-baseline
// training path of the paper's comparisons.
func TrainClassifier(net *Network, ds *Dataset, epochs, batchSize int, lr float64, seed int64) {
	rng := tensor.NewRNG(seed)
	opt := nn.NewAdam(lr)
	for e := 0; e < epochs; e++ {
		for _, b := range ds.Batches(batchSize, rng) {
			net.ZeroGrads()
			logits := net.Forward(b.X, true)
			_, _, grad := nn.SoftmaxCrossEntropy(logits, b.Y)
			net.Backward(grad)
			nn.ClipGrads(net.Grads(), 5)
			opt.Step(net.Params(), net.Grads())
		}
	}
}

// Tensors (the numeric currency of the API).
type (
	// Tensor is a dense row-major float64 array.
	Tensor = tensor.Tensor
	// RNG is the deterministic random source used throughout.
	RNG = tensor.RNG
)

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return tensor.NewRNG(seed) }
