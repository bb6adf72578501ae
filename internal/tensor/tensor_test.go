package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 || x.Rank() != 2 {
		t.Fatalf("New(2,3): size=%d rank=%d", x.Size(), x.Rank())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestOnesAndFull(t *testing.T) {
	if got := Ones(3).Sum(); got != 3 {
		t.Fatalf("Ones(3).Sum() = %v, want 3", got)
	}
	if got := Full(2.5, 2, 2).Sum(); got != 10 {
		t.Fatalf("Full(2.5,2,2).Sum() = %v, want 10", got)
	}
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice mismatch did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetOffsets(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7 {
		t.Fatalf("At(1,2,3) = %v, want 7", got)
	}
	if got := x.Data[1*12+2*4+3]; got != 7 {
		t.Fatalf("row-major offset wrong: %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	x.At(2, 0)
}

func TestDimNegativeIndex(t *testing.T) {
	x := New(2, 3, 4)
	if x.Dim(-1) != 4 || x.Dim(-3) != 2 || x.Dim(1) != 3 {
		t.Fatalf("Dim wrong: %d %d %d", x.Dim(-1), x.Dim(-3), x.Dim(1))
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone shares data")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone shape differs")
	}
}

func TestRowViewsShareStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	r := x.Row(1)
	r.Data[0] = 99
	if x.At(1, 0) != 99 {
		t.Fatal("Row view does not alias")
	}
	if got := x.RowSlice(0)[1]; got != 2 {
		t.Fatalf("RowSlice = %v", got)
	}
}

func TestSelectRows(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	y := x.SelectRows([]int{2, 0})
	want := FromSlice([]float64{5, 6, 1, 2}, 2, 2)
	if !y.Equal(want) {
		t.Fatalf("SelectRows = %v", y)
	}
	// Copies, not views.
	y.Data[0] = -1
	if x.At(2, 0) != 5 {
		t.Fatal("SelectRows aliased source")
	}
}

func TestAddSub(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Add(a, b); !got.Equal(FromSlice([]float64{5, 7, 9}, 3)) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(FromSlice([]float64{3, 3, 3}, 3)) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add shape mismatch did not panic")
		}
	}()
	Add(New(2), New(3))
}

func TestScaleAndAxpy(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	if got := Scale(a, 3); !got.Equal(FromSlice([]float64{3, 6}, 2)) {
		t.Fatalf("Scale = %v", got)
	}
	a.AddScaled(FromSlice([]float64{10, 10}, 2), 0.5)
	if !a.Equal(FromSlice([]float64{6, 7}, 2)) {
		t.Fatalf("AddScaled = %v", a)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -1, 4, 1}, 4)
	if x.Sum() != 7 || x.Max() != 4 || x.Min() != -1 {
		t.Fatalf("reductions wrong: %v %v %v", x.Sum(), x.Max(), x.Min())
	}
	if x.ArgMax() != 2 || x.ArgMin() != 1 {
		t.Fatalf("arg reductions wrong: %d %d", x.ArgMax(), x.ArgMin())
	}
	if got := x.Norm2(); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Fatalf("Norm2 = %v", got)
	}
}

func TestArgMinFirstTie(t *testing.T) {
	x := FromSlice([]float64{2, 1, 1}, 3)
	if x.ArgMin() != 1 {
		t.Fatalf("ArgMin tie = %d, want first occurrence 1", x.ArgMin())
	}
}

func TestSumRowsCols(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := SumRows(x); !got.Equal(FromSlice([]float64{6, 15}, 2)) {
		t.Fatalf("SumRows = %v", got)
	}
	if got := SumCols(x); !got.Equal(FromSlice([]float64{5, 7, 9}, 3)) {
		t.Fatalf("SumCols = %v", got)
	}
}

func TestAddRowVector(t *testing.T) {
	x := New(2, 3)
	x.AddRowVector(FromSlice([]float64{1, 2, 3}, 3))
	if !x.Equal(FromSlice([]float64{1, 2, 3, 1, 2, 3}, 2, 3)) {
		t.Fatalf("AddRowVector = %v", x)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 1000, 1001, 1002}, 2, 3)
	p := SoftmaxRows(x)
	for i := 0; i < 2; i++ {
		s := 0.0
		for _, v := range p.RowSlice(i) {
			if v <= 0 || v >= 1 {
				t.Fatalf("softmax element out of (0,1): %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	// Shift invariance: the two rows differ by a constant, so probabilities match.
	if !p.Row(0).AllClose(p.Row(1), 1e-12) {
		t.Fatal("softmax not shift invariant / not numerically stable")
	}
}

func TestEntropy(t *testing.T) {
	rows := FromSlice([]float64{0.25, 0.25, 0.25, 0.25, 1, 0, 0, 0}, 2, 4)
	h := EntropyRows(rows)
	if math.Abs(h.Data[0]-math.Log(4)) > 1e-12 || h.Data[1] != 0 {
		t.Fatalf("EntropyRows = %v", h)
	}
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Transpose(x)
	want := FromSlice([]float64{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.Equal(want) {
		t.Fatalf("Transpose = %v", got)
	}
}

func TestHasNaN(t *testing.T) {
	x := FromSlice([]float64{-1, 0.5, 1}, 3)
	if x.HasNaN() {
		t.Fatal("HasNaN false positive")
	}
	x.Data[1] = math.NaN()
	if !x.HasNaN() {
		t.Fatal("HasNaN missed NaN")
	}
	x.Data[1] = math.Inf(1)
	if !x.HasNaN() {
		t.Fatal("HasNaN missed +Inf")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v", got)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := rng.Randn(5, 5)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	if got := MatMul(a, id); !got.AllClose(a, 1e-12) {
		t.Fatal("A × I != A")
	}
	if got := MatMul(id, a); !got.AllClose(a, 1e-12) {
		t.Fatal("I × A != A")
	}
}

// naiveMatMul is the reference implementation used to validate the blocked
// kernel on shapes around the blocking boundary.
// Transpose returns the transpose of a rank-2 tensor in a new tensor: the
// reference MatMulTransA and MatMulTransB are checked against.
func Transpose(t *Tensor) *Tensor {
	t.mustRank(2)
	r, c := t.Shape[0], t.Shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Data[j*r+i] = t.Data[i*c+j]
		}
	}
	return out
}

// Dot returns the inner product of two equally-sized tensors (flattened).
func Dot(a, b *Tensor) float64 {
	mustSameSize("Dot", a, b)
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func TestMatMulMatchesNaiveAcrossBlockBoundary(t *testing.T) {
	rng := NewRNG(2)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {63, 64, 65}, {64, 64, 64}, {65, 130, 7}} {
		a := rng.Randn(dims[0], dims[1])
		b := rng.Randn(dims[1], dims[2])
		if !MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-9) {
			t.Fatalf("blocked matmul disagrees with naive at dims %v", dims)
		}
	}
}

func TestMatMulInnerDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul dim mismatch did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulInto(t *testing.T) {
	rng := NewRNG(3)
	a, b := rng.Randn(4, 6), rng.Randn(6, 5)
	dst := Ones(4, 5) // pre-filled to verify zeroing
	MatMulInto(dst, a, b)
	if !dst.AllClose(MatMul(a, b), 1e-12) {
		t.Fatal("MatMulInto disagrees with MatMul")
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := NewRNG(4)
	a, b := rng.Randn(6, 3), rng.Randn(6, 4)
	if !MatMulTransA(a, b).AllClose(MatMul(Transpose(a), b), 1e-9) {
		t.Fatal("MatMulTransA wrong")
	}
	c, d := rng.Randn(3, 6), rng.Randn(4, 6)
	if !MatMulTransB(c, d).AllClose(MatMul(c, Transpose(d)), 1e-9) {
		t.Fatal("MatMulTransB wrong")
	}
}

func TestRowBlockConcat(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
	top := RowBlock(x, 0, 2)
	bot := RowBlock(x, 2, 4)
	if !ConcatRows(top, bot).Equal(x) {
		t.Fatal("RowBlock + ConcatRows does not round-trip")
	}
	// View semantics.
	top.Data[0] = 99
	if x.At(0, 0) != 99 {
		t.Fatal("RowBlock is not a view")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Randn(10)
	b := NewRNG(42).Randn(10)
	if !a.Equal(b) {
		t.Fatal("same seed produced different tensors")
	}
	c := NewRNG(43).Randn(10)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical tensors")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Split(1).Randn(8)
	root2 := NewRNG(7)
	b := root2.Split(1).Randn(8)
	if !a.Equal(b) {
		t.Fatal("Split not deterministic")
	}
}

func TestXavierUniformBounds(t *testing.T) {
	w := NewRNG(5).XavierUniform(100, 50)
	limit := math.Sqrt(6.0 / 150.0)
	for _, v := range w.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1×1 kernel, stride 1, no pad: patches are just the pixels.
	g := ConvGeom{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 1, KW: 1, Stride: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	cols := Im2Col(x, g)
	if !cols.Equal(FromSlice([]float64{1, 2, 3, 4}, 4, 1)) {
		t.Fatalf("Im2Col 1x1 = %v", cols)
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 3×3 input, 2×2 kernel, stride 1 → 2×2 output, 4 patches.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 9)
	cols := Im2Col(x, g)
	want := FromSlice([]float64{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	}, 4, 4)
	if !cols.Equal(want) {
		t.Fatalf("Im2Col = %v", cols)
	}
}

func TestIm2ColPadding(t *testing.T) {
	// 2×2 input, 3×3 kernel, pad 1 → 2×2 output; corners of each patch are 0.
	g := ConvGeom{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OutH != 2 || g.OutW != 2 {
		t.Fatalf("geom out = %dx%d", g.OutH, g.OutW)
	}
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	cols := Im2Col(x, g)
	// First patch centered at (0,0): top row and left column are padding.
	want0 := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for j, v := range want0 {
		if cols.At(0, j) != v {
			t.Fatalf("patch 0 tap %d = %v, want %v", j, cols.At(0, j), v)
		}
	}
}

func TestCol2ImAdjointProperty(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — Col2Im must be the exact adjoint of
	// Im2Col for backprop through convolution to be correct.
	g := ConvGeom{InC: 2, InH: 5, InW: 4, OutC: 3, KH: 3, KW: 3, Stride: 2, Pad: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(9)
	batch := 2
	x := rng.Randn(batch, g.InC*g.InH*g.InW)
	cols := Im2Col(x, g)
	y := rng.Randn(cols.Shape[0], cols.Shape[1])
	lhs := Dot(cols, y)
	rhs := Dot(x, Col2Im(y, batch, g))
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestConvGeomValidateErrors(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 2, InW: 2, OutC: 1, KH: 1, KW: 1, Stride: 1},
		{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 0, KW: 1, Stride: 1},
		{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 1, KW: 1, Stride: 0},
		{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 5, KW: 5, Stride: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// Property: matmul distributes over addition, A(B+C) = AB + AC.
func TestPropMatMulDistributive(t *testing.T) {
	rng := NewRNG(11)
	f := func(seed uint8) bool {
		r := rng.Split(int64(seed))
		a := r.Randn(3, 4)
		b := r.Randn(4, 2)
		c := r.Randn(4, 2)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		return lhs.AllClose(rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution and (AB)ᵀ = BᵀAᵀ.
func TestPropTransposeInvolution(t *testing.T) {
	rng := NewRNG(12)
	f := func(seed uint8) bool {
		r := rng.Split(int64(seed))
		a := r.Randn(3, 5)
		b := r.Randn(5, 2)
		if !Transpose(Transpose(a)).Equal(a) {
			return false
		}
		return Transpose(MatMul(a, b)).AllClose(MatMul(Transpose(b), Transpose(a)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax rows are probability vectors and entropy is bounded by
// ln(C).
func TestPropSoftmaxEntropyBounds(t *testing.T) {
	rng := NewRNG(13)
	f := func(seed uint8) bool {
		r := rng.Split(int64(seed))
		logits := r.RandnScaled(5, 4, 7)
		p := SoftmaxRows(logits)
		h := EntropyRows(p)
		for i := 0; i < 4; i++ {
			if h.Data[i] < -1e-12 || h.Data[i] > math.Log(7)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RowBlock partition concatenates back to the original.
func TestPropRowBlockPartition(t *testing.T) {
	rng := NewRNG(14)
	f := func(seed uint8, cut uint8) bool {
		r := rng.Split(int64(seed))
		x := r.Randn(8, 3)
		c := int(cut) % 9
		return ConcatRows(RowBlock(x, 0, c), RowBlock(x, c, 8)).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringTruncates(t *testing.T) {
	s := New(100).String()
	if len(s) > 300 {
		t.Fatalf("String too long: %d chars", len(s))
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Shapes large enough to cross the parallel threshold must agree
	// bit-for-bit with the naive kernel (row partitioning is exact).
	rng := NewRNG(99)
	a := rng.Randn(300, 200)
	b := rng.Randn(200, 150)
	got := MatMul(a, b)
	want := naiveMatMul(a, b)
	if !got.AllClose(want, 1e-9) {
		t.Fatal("parallel matmul diverges from naive")
	}
	// Determinism across runs.
	if !MatMul(a, b).Equal(got) {
		t.Fatal("parallel matmul not deterministic")
	}
}
