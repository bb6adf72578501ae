package dataset

import (
	"testing"
	"testing/quick"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// ClassCounts returns the number of samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

func TestDigitsShapeAndBalance(t *testing.T) {
	d := Digits(DigitsConfig{N: 100, Seed: 1})
	if d.Len() != 100 || d.Features() != 28*28 || d.C != 1 {
		t.Fatalf("digits geometry wrong: len=%d features=%d", d.Len(), d.Features())
	}
	for c, n := range d.ClassCounts() {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10", c, n)
		}
	}
}

func TestDigitsPixelRange(t *testing.T) {
	d := Digits(DigitsConfig{N: 20, Seed: 2})
	if d.X.Min() < 0 || d.X.Max() > 1 {
		t.Fatalf("pixels outside [0,1]: [%v, %v]", d.X.Min(), d.X.Max())
	}
	if d.X.Max() == 0 {
		t.Fatal("all-black digits")
	}
}

func TestDigitsDeterministic(t *testing.T) {
	a := Digits(DigitsConfig{N: 30, Seed: 7})
	b := Digits(DigitsConfig{N: 30, Seed: 7})
	if !a.X.Equal(b.X) {
		t.Fatal("same seed produced different digits")
	}
	c := Digits(DigitsConfig{N: 30, Seed: 8})
	if a.X.Equal(c.X) {
		t.Fatal("different seed produced identical digits")
	}
}

func TestDigitsSamplesVaryWithinClass(t *testing.T) {
	d := Digits(DigitsConfig{N: 30, Seed: 3})
	// Rows 0 and 10 are both class 0 but must differ (jitter).
	if d.Y[0] != 0 || d.Y[10] != 0 {
		t.Fatal("class layout assumption broken")
	}
	if d.X.Row(0).Equal(d.X.Row(10)) {
		t.Fatal("two samples of the same class are identical")
	}
}

func TestObjectsShapeAndCategories(t *testing.T) {
	d := Objects(ObjectsConfig{N: 40, H: 16, W: 16, Seed: 4})
	if d.Features() != 3*16*16 || d.C != 3 {
		t.Fatalf("objects geometry wrong: %d", d.Features())
	}
	machines := 0
	for c := 0; c < 10; c++ {
		if IsMachine(c) {
			machines++
		}
	}
	if machines != 4 {
		t.Fatalf("machine classes = %d, want 4 (airplane, automobile, ship, truck)", machines)
	}
	if !IsMachine(0) || !IsMachine(1) || !IsMachine(8) || !IsMachine(9) || IsMachine(3) {
		t.Fatal("IsMachine mapping wrong")
	}
	if len(d.ClassNames) != 10 || d.ClassNames[0] != "airplane" || d.ClassNames[9] != "truck" {
		t.Fatalf("class names wrong: %v", d.ClassNames)
	}
}

func TestObjectsPixelRangeAndDeterminism(t *testing.T) {
	a := Objects(ObjectsConfig{N: 20, H: 12, W: 12, Seed: 5})
	if a.X.Min() < 0 || a.X.Max() > 1 {
		t.Fatal("pixels outside [0,1]")
	}
	b := Objects(ObjectsConfig{N: 20, H: 12, W: 12, Seed: 5})
	if !a.X.Equal(b.X) {
		t.Fatal("same seed produced different objects")
	}
}

func TestObjectsClassesAreDistinguishable(t *testing.T) {
	// Mean image per class must differ between classes; identical
	// generators would break every experiment downstream.
	d := Objects(ObjectsConfig{N: 100, H: 12, W: 12, Seed: 6})
	means := make([]*tensor.Tensor, 10)
	for c := 0; c < 10; c++ {
		var idx []int
		for i, y := range d.Y {
			if y == c {
				idx = append(idx, i)
			}
		}
		sub := d.X.SelectRows(idx)
		mean := tensor.New(d.Features())
		for i := 0; i < sub.Rows(); i++ {
			mean.AddScaled(sub.Row(i), 1/float64(sub.Rows()))
		}
		means[c] = mean
	}
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			if tensor.Sub(means[a], means[b]).Norm2() < 0.1 {
				t.Fatalf("classes %d and %d have nearly identical mean images", a, b)
			}
		}
	}
}

func TestSplitStratified(t *testing.T) {
	d := Digits(DigitsConfig{N: 200, Seed: 9})
	train, test := d.Split(0.8, tensor.NewRNG(1))
	if train.Len() != 160 || test.Len() != 40 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	for c, n := range train.ClassCounts() {
		if n != 16 {
			t.Fatalf("train class %d has %d, want 16 (stratified)", c, n)
		}
	}
	// No index overlap: total pixel mass preserved.
	got := train.X.Sum() + test.X.Sum()
	if diff := got - d.X.Sum(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("split lost mass: %v", diff)
	}
}

func TestSplitBadFracPanics(t *testing.T) {
	d := Digits(DigitsConfig{N: 20, Seed: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("Split(1.5) did not panic")
		}
	}()
	d.Split(1.5, tensor.NewRNG(0))
}

func TestBatchesCoverEverySampleOnce(t *testing.T) {
	d := Digits(DigitsConfig{N: 50, Seed: 11})
	batches := d.Batches(16, tensor.NewRNG(2))
	if len(batches) != 4 { // 16+16+16+2
		t.Fatalf("batch count %d", len(batches))
	}
	seen := make(map[int]bool)
	for _, b := range batches {
		if len(b.Y) != b.X.Rows() || len(b.Indices) != len(b.Y) {
			t.Fatal("batch internal sizes disagree")
		}
		for i, idx := range b.Indices {
			if seen[idx] {
				t.Fatalf("index %d appears twice", idx)
			}
			seen[idx] = true
			if d.Y[idx] != b.Y[i] {
				t.Fatal("batch label does not match source")
			}
		}
	}
	if len(seen) != 50 {
		t.Fatalf("covered %d samples, want 50", len(seen))
	}
}

func TestBatchesInvalidSizePanics(t *testing.T) {
	d := Digits(DigitsConfig{N: 10, Seed: 12})
	defer func() {
		if recover() == nil {
			t.Fatal("Batches(0) did not panic")
		}
	}()
	d.Batches(0, tensor.NewRNG(0))
}

func TestSubsetCopies(t *testing.T) {
	d := Digits(DigitsConfig{N: 20, Seed: 13})
	s := d.Subset([]int{3, 7})
	if s.Len() != 2 || s.Y[0] != d.Y[3] || s.Y[1] != d.Y[7] {
		t.Fatal("subset content wrong")
	}
	s.X.Data[0] = -99
	if d.X.At(3, 0) == -99 {
		t.Fatal("Subset aliased the source")
	}
}

// Property: batching any dataset with any batch size partitions the index
// set exactly.
func TestPropBatchesPartition(t *testing.T) {
	d := Digits(DigitsConfig{N: 37, Seed: 14})
	f := func(seed uint8, bsRaw uint8) bool {
		bs := int(bsRaw)%20 + 1
		batches := d.Batches(bs, tensor.NewRNG(int64(seed)))
		count := 0
		seen := make(map[int]bool)
		for _, b := range batches {
			for _, idx := range b.Indices {
				if seen[idx] {
					return false
				}
				seen[idx] = true
				count++
			}
		}
		return count == 37
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// An MLP must be able to learn the synthetic digits well above chance in a
// brief training run — the datasets exist to support the paper's accuracy
// comparisons, so learnability is a hard requirement.
func TestDigitsLearnableByMLP(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	d := Digits(DigitsConfig{N: 600, H: 14, W: 14, Seed: 15})
	train, test := d.Split(0.8, tensor.NewRNG(3))
	rng := tensor.NewRNG(4)
	net, err := nn.MLPSpec{Label: "m", Input: d.Features(), Width: 64, Layers: 3, Classes: 10}.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.003)
	for epoch := 0; epoch < 12; epoch++ {
		for _, b := range train.Batches(32, rng) {
			net.ZeroGrads()
			logits := net.Forward(b.X, true)
			_, _, grad := nn.SoftmaxCrossEntropy(logits, b.Y)
			net.Backward(grad)
			opt.Step(net.Params(), net.Grads())
		}
	}
	if acc := net.Accuracy(test.X, test.Y); acc < 0.8 {
		t.Fatalf("digit test accuracy %v < 0.8 — dataset not learnable", acc)
	}
}
