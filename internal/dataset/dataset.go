// Package dataset provides the two synthetic image datasets used by the
// reproduction in place of MNIST and CIFAR-10, which are unavailable in the
// offline build environment (see DESIGN.md §1).
//
// Digits renders 28×28 (configurable) grey seven-segment-style glyphs with
// per-sample affine jitter and pixel noise — ten balanced classes learnable
// by shallow MLPs, standing in for MNIST.
//
// Objects renders colour images of ten classes named after CIFAR-10's, each
// with a characteristic shape, palette and texture. The classes form the
// two super-categories the paper's Figure 9 analyses — machines (airplane,
// automobile, ship, truck) and animals (bird, cat, deer, dog, frog, horse) —
// with category-correlated texture statistics, so expert specialization
// along the machine/animal axis is observable exactly as in the paper.
//
// All generation is deterministic given the config seed.
package dataset

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Dataset is a labelled image set with features flattened NCHW per row.
type Dataset struct {
	Name       string
	X          *tensor.Tensor // [n, C·H·W]
	Y          []int
	Classes    int
	ClassNames []string
	C, H, W    int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Features returns the per-sample feature width C·H·W.
func (d *Dataset) Features() int { return d.C * d.H * d.W }

// Subset returns a new dataset containing the rows listed in idx (copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	y := make([]int, len(idx))
	for i, j := range idx {
		y[i] = d.Y[j]
	}
	return &Dataset{
		Name: d.Name, X: d.X.SelectRows(idx), Y: y,
		Classes: d.Classes, ClassNames: d.ClassNames, C: d.C, H: d.H, W: d.W,
	}
}

// Split partitions the dataset into a training set with trainFrac of the
// samples and a test set with the rest, stratified by class so both halves
// stay balanced (the paper's Algorithm 2 analysis assumes balanced batches).
func (d *Dataset) Split(trainFrac float64, rng *tensor.RNG) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: trainFrac %v outside (0,1)", trainFrac))
	}
	byClass := make([][]int, d.Classes)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	var trainIdx, testIdx []int
	for _, idx := range byClass {
		rng.Shuffle(idx)
		cut := int(float64(len(idx)) * trainFrac)
		trainIdx = append(trainIdx, idx[:cut]...)
		testIdx = append(testIdx, idx[cut:]...)
	}
	rng.Shuffle(trainIdx)
	rng.Shuffle(testIdx)
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// Batch is one mini-batch of training data. Indices refers back to the
// source dataset, which the TeamNet trainer uses to track which expert
// learned which sample.
type Batch struct {
	X       *tensor.Tensor
	Y       []int
	Indices []int
}

// Batches reshuffles the dataset and cuts it into mini-batches of size
// batchSize (the final short batch is kept — Algorithm 1 consumes every
// sample). It allocates fresh copies, so batches may be mutated freely.
func (d *Dataset) Batches(batchSize int, rng *tensor.RNG) []Batch {
	if batchSize <= 0 {
		panic("dataset: batchSize must be positive")
	}
	perm := rng.Perm(d.Len())
	var out []Batch
	for lo := 0; lo < len(perm); lo += batchSize {
		hi := lo + batchSize
		if hi > len(perm) {
			hi = len(perm)
		}
		idx := perm[lo:hi]
		y := make([]int, len(idx))
		for i, j := range idx {
			y[i] = d.Y[j]
		}
		out = append(out, Batch{X: d.X.SelectRows(idx), Y: y, Indices: append([]int(nil), idx...)})
	}
	return out
}
