package core

import (
	"fmt"
	"strings"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Evaluation report: confusion matrix and per-class metrics for a
// classifier's predictions, used by the examples and the CLI tools to go
// beyond a single accuracy number (the paper's accuracy rows hide which
// classes each system trades away).

// Evaluation summarizes classification quality on a labelled set.
type Evaluation struct {
	Classes    int
	ClassNames []string
	// Confusion[t][p] counts samples of true class t predicted as p.
	Confusion [][]int
	// Total and Correct are overall counts.
	Total, Correct int
}

// Evaluate builds an Evaluation from probability rows and integer labels.
func Evaluate(probs *tensor.Tensor, y []int, classNames []string) (*Evaluation, error) {
	if probs.Rows() != len(y) {
		return nil, fmt.Errorf("core: %d probability rows for %d labels", probs.Rows(), len(y))
	}
	classes := probs.Cols()
	e := &Evaluation{
		Classes:    classes,
		ClassNames: classNames,
		Confusion:  make([][]int, classes),
	}
	for t := range e.Confusion {
		e.Confusion[t] = make([]int, classes)
	}
	for i, t := range y {
		if t < 0 || t >= classes {
			return nil, fmt.Errorf("core: label %d outside %d classes", t, classes)
		}
		p := probs.Row(i).ArgMax()
		e.Confusion[t][p]++
		e.Total++
		if p == t {
			e.Correct++
		}
	}
	return e, nil
}

// Accuracy returns overall accuracy in [0, 1].
func (e *Evaluation) Accuracy() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.Total)
}

// Recall returns per-class recall (diagonal over row sums); classes with no
// samples report 0.
func (e *Evaluation) Recall() []float64 {
	out := make([]float64, e.Classes)
	for t, row := range e.Confusion {
		n := 0
		for _, c := range row {
			n += c
		}
		if n > 0 {
			out[t] = float64(row[t]) / float64(n)
		}
	}
	return out
}

// Precision returns per-class precision (diagonal over column sums);
// classes never predicted report 0.
func (e *Evaluation) Precision() []float64 {
	out := make([]float64, e.Classes)
	for p := 0; p < e.Classes; p++ {
		n := 0
		for t := 0; t < e.Classes; t++ {
			n += e.Confusion[t][p]
		}
		if n > 0 {
			out[p] = float64(e.Confusion[p][p]) / float64(n)
		}
	}
	return out
}

// String renders a per-class report plus the confusion matrix.
func (e *Evaluation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accuracy %.2f%% (%d/%d)\n", 100*e.Accuracy(), e.Correct, e.Total)
	rec, prec := e.Recall(), e.Precision()
	for c := 0; c < e.Classes; c++ {
		name := fmt.Sprintf("class%d", c)
		if c < len(e.ClassNames) {
			name = e.ClassNames[c]
		}
		fmt.Fprintf(&b, "%-12s recall %.2f  precision %.2f\n", name, rec[c], prec[c])
	}
	return b.String()
}
