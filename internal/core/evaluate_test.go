package core

import (
	"math"
	"strings"
	"testing"

	"github.com/teamnet/teamnet/internal/tensor"
)

// probsFor builds one-hot-ish probability rows predicting the given classes.
func probsFor(preds []int, classes int) *tensor.Tensor {
	p := tensor.New(len(preds), classes)
	for i, c := range preds {
		for j := 0; j < classes; j++ {
			p.Set(0.1/float64(classes), i, j)
		}
		p.Set(0.9, i, c)
	}
	return p
}

func TestEvaluateConfusionAndAccuracy(t *testing.T) {
	// true:  0 0 1 1 2
	// pred:  0 1 1 1 0
	probs := probsFor([]int{0, 1, 1, 1, 0}, 3)
	e, err := Evaluate(probs, []int{0, 0, 1, 1, 2}, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Total != 5 || e.Correct != 3 {
		t.Fatalf("totals %d/%d", e.Correct, e.Total)
	}
	if math.Abs(e.Accuracy()-0.6) > 1e-12 {
		t.Fatalf("accuracy %v", e.Accuracy())
	}
	if e.Confusion[0][0] != 1 || e.Confusion[0][1] != 1 || e.Confusion[2][0] != 1 {
		t.Fatalf("confusion %v", e.Confusion)
	}
	rec := e.Recall()
	if math.Abs(rec[0]-0.5) > 1e-12 || rec[1] != 1 || rec[2] != 0 {
		t.Fatalf("recall %v", rec)
	}
	prec := e.Precision()
	// class 0 predicted twice, once correctly.
	if math.Abs(prec[0]-0.5) > 1e-12 {
		t.Fatalf("precision %v", prec)
	}
	// class 1 predicted three times, twice correctly.
	if math.Abs(prec[1]-2.0/3) > 1e-12 {
		t.Fatalf("precision %v", prec)
	}
	s := e.String()
	if !strings.Contains(s, "accuracy 60.00%") || !strings.Contains(s, "c ") && !strings.Contains(s, "c\t") && !strings.Contains(s, "c  ") {
		t.Fatalf("report:\n%s", s)
	}
}

func TestEvaluateValidation(t *testing.T) {
	probs := probsFor([]int{0}, 2)
	if _, err := Evaluate(probs, []int{0, 1}, nil); err == nil {
		t.Fatal("row/label mismatch accepted")
	}
	if _, err := Evaluate(probs, []int{5}, nil); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	e, err := Evaluate(tensor.New(0, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Accuracy() != 0 {
		t.Fatal("empty evaluation not neutral")
	}
}

func TestEvaluateMatchesTeamAccuracy(t *testing.T) {
	ds := smallDigits(120, 71)
	tr, err := NewTrainer(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	team, _ := tr.Train(ds)
	probs, _ := team.Predict(ds.X)
	e, err := Evaluate(probs, ds.Y, ds.ClassNames)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Accuracy()-team.Accuracy(ds.X, ds.Y)) > 1e-12 {
		t.Fatalf("Evaluate accuracy %v != Team accuracy %v", e.Accuracy(), team.Accuracy(ds.X, ds.Y))
	}
}
