// Package tensor implements a small dense-tensor library used by every
// numerical component of the TeamNet reproduction: the neural-network
// substrate, the TeamNet gate optimizer, the SG-MoE baseline, and the MPI
// parallelization schemes.
//
// Tensors are row-major, float64, and deliberately simple: a flat backing
// slice plus a shape. The library favours explicit, allocation-conscious
// operations (Dst variants) over operator overloading, because the training
// loops in internal/nn and internal/core are the hot paths of the whole
// system.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major array of float64 values.
//
// The zero value is not usable; construct tensors with New, FromSlice or
// the random constructors in random.go. Data is exported for fast,
// index-free access by hot loops; the shape must be treated as immutable.
type Tensor struct {
	// Data is the row-major backing storage. len(Data) == product(Shape).
	Data []float64
	// Shape holds the extent of each dimension. It must not be mutated.
	Shape []int
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative; a zero dimension yields an empty
// tensor, which is valid.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Data: make([]float64, n), Shape: append([]int(nil), shape...)}
}

// Ones returns a tensor of the given shape with every element set to 1.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = 1
	}
	return t
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not alias it elsewhere. It panics
// if the element count does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v requires %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Dim returns the extent of dimension i, supporting negative indices
// counted from the end (Dim(-1) is the last dimension).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.Shape)
	}
	return t.Shape[i]
}

// Rows returns the leading dimension of a matrix; it panics unless the
// tensor has rank 2.
func (t *Tensor) Rows() int {
	t.mustRank(2)
	return t.Shape[0]
}

// Cols returns the trailing dimension of a matrix; it panics unless the
// tensor has rank 2.
func (t *Tensor) Cols() int {
	t.mustRank(2)
	return t.Shape[1]
}

func (t *Tensor) mustRank(r int) {
	if len(t.Shape) != r {
		panic(fmt.Sprintf("tensor: rank %d required, have shape %v", r, t.Shape))
	}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if u.Shape[i] != d {
			return false
		}
	}
	return true
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	u := New(t.Shape...)
	copy(u.Data, t.Data)
	return u
}

// CopyFrom copies u's data into t. It panics if the sizes differ; shapes may
// differ as long as the element counts match.
func (t *Tensor) CopyFrom(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(u.Data)))
	}
	copy(t.Data, u.Data)
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() {
	clear(t.Data)
}

// Row returns a rank-1 view of row i of a rank-2 tensor. The view shares
// backing storage with t.
func (t *Tensor) Row(i int) *Tensor {
	t.mustRank(2)
	c := t.Shape[1]
	return &Tensor{Data: t.Data[i*c : (i+1)*c : (i+1)*c], Shape: []int{c}}
}

// RowSlice returns the raw backing slice for row i of a rank-2 tensor.
func (t *Tensor) RowSlice(i int) []float64 {
	t.mustRank(2)
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// SelectRows returns a new rank-2 tensor containing the rows of t listed in
// idx, in order. Rows are copied.
func (t *Tensor) SelectRows(idx []int) *Tensor {
	t.mustRank(2)
	c := t.Shape[1]
	out := New(len(idx), c)
	for k, i := range idx {
		copy(out.Data[k*c:(k+1)*c], t.Data[i*c:(i+1)*c])
	}
	return out
}

// Equal reports whether t and u have the same shape and element-wise equal
// data (exact comparison).
func (t *Tensor) Equal(u *Tensor) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.Data {
		if u.Data[i] != v {
			return false
		}
	}
	return true
}

// AllClose reports whether t and u have the same shape and element-wise
// agreement within absolute tolerance tol.
func (t *Tensor) AllClose(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(u.Data[i]-v) > tol {
			return false
		}
	}
	return true
}

// String renders a compact, shape-prefixed representation, truncating long
// tensors. It is intended for debugging, not serialization.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.Shape)
	const maxShown = 16
	for i, v := range t.Data {
		if i == maxShown {
			fmt.Fprintf(&b, "... (%d more)", len(t.Data)-maxShown)
			break
		}
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteString("]")
	return b.String()
}
