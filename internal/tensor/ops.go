package tensor

import (
	"fmt"
	"math"
)

// Add returns t + u element-wise in a new tensor.
func Add(t, u *Tensor) *Tensor {
	mustSameShape("Add", t, u)
	out := New(t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = v + u.Data[i]
	}
	return out
}

// AddInto computes dst = t + u element-wise. dst may alias t or u.
func AddInto(dst, t, u *Tensor) {
	mustSameShape("AddInto", t, u)
	mustSameSize("AddInto", dst, t)
	for i, v := range t.Data {
		dst.Data[i] = v + u.Data[i]
	}
}

// Sub returns t - u element-wise in a new tensor.
func Sub(t, u *Tensor) *Tensor {
	mustSameShape("Sub", t, u)
	out := New(t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = v - u.Data[i]
	}
	return out
}

// Scale returns v * t in a new tensor.
func Scale(t *Tensor, v float64) *Tensor {
	out := New(t.Shape...)
	for i, x := range t.Data {
		out.Data[i] = x * v
	}
	return out
}

// ScaleInPlace multiplies every element of t by v.
func (t *Tensor) ScaleInPlace(v float64) {
	for i := range t.Data {
		t.Data[i] *= v
	}
}

// AddScaled accumulates t += alpha * u (a fused axpy), the core update of
// every optimizer in internal/nn.
func (t *Tensor) AddScaled(u *Tensor, alpha float64) {
	mustSameSize("AddScaled", t, u)
	for i, v := range u.Data {
		t.Data[i] += alpha * v
	}
}

// ApplyInPlace applies f element-wise to t, mutating it.
func (t *Tensor) ApplyInPlace(f func(float64) float64) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Max returns the maximum element; it panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element; it panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the first maximum element of a rank-1 tensor
// or of the flattened data for higher ranks.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// ArgMin returns the index of the first minimum element of the flattened
// data. TeamNet's inference gate is an arg-min over predictive entropies.
func (t *Tensor) ArgMin() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMin of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v < best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Norm2 returns the Euclidean norm of the flattened data.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// SumRows returns a rank-1 tensor with the sum over each row of a rank-2
// tensor (reduction along axis 1).
func SumRows(t *Tensor) *Tensor {
	t.mustRank(2)
	r, c := t.Shape[0], t.Shape[1]
	out := New(r)
	for i := 0; i < r; i++ {
		s := 0.0
		row := t.Data[i*c : (i+1)*c]
		for _, v := range row {
			s += v
		}
		out.Data[i] = s
	}
	return out
}

// SumCols returns a rank-1 tensor with the sum over each column of a rank-2
// tensor (reduction along axis 0). Used for bias gradients.
func SumCols(t *Tensor) *Tensor {
	t.mustRank(2)
	r, c := t.Shape[0], t.Shape[1]
	out := New(c)
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// AddRowVector adds a rank-1 vector v to every row of rank-2 tensor t,
// in place (bias addition).
func (t *Tensor) AddRowVector(v *Tensor) {
	t.mustRank(2)
	r, c := t.Shape[0], t.Shape[1]
	if v.Size() != c {
		panic(fmt.Sprintf("tensor: AddRowVector vector size %d != cols %d", v.Size(), c))
	}
	AddBias(t.Data[:r*c], v.Data)
}

// AddBias adds bias to every len(bias)-wide row of y in place: the bias of
// a dense layer, as AddRowVector and the inference snapshots apply it.
func AddBias(y, bias []float64) {
	for len(y) >= len(bias) && len(bias) > 0 {
		row := y[:len(bias)]
		for j := range row {
			row[j] += bias[j]
		}
		y = y[len(bias):]
	}
}

// SoftmaxRows computes a numerically-stable softmax independently over each
// row of a rank-2 tensor, returning a new tensor. It is the final stage of
// every classifier in this repository.
func SoftmaxRows(t *Tensor) *Tensor {
	t.mustRank(2)
	r, c := t.Shape[0], t.Shape[1]
	out := New(r, c)
	for i := 0; i < r; i++ {
		in := t.Data[i*c : (i+1)*c]
		dst := out.Data[i*c : (i+1)*c]
		softmaxInto(dst, in)
	}
	return out
}

// softmaxInto writes softmax(in) into dst with the max-subtraction trick.
func softmaxInto(dst, in []float64) {
	m := in[0]
	for _, v := range in[1:] {
		if v > m {
			m = v
		}
	}
	s := 0.0
	for j, v := range in {
		e := math.Exp(v - m)
		dst[j] = e
		s += e
	}
	inv := 1 / s
	for j := range dst {
		dst[j] *= inv
	}
}

// SoftmaxRowsInto computes the row-wise softmax of src (rows×cols,
// row-major) into dst without allocating. dst may alias src, turning logits
// into probabilities in place; it shares the per-row kernel with
// SoftmaxRows, so the two are bit-identical.
func SoftmaxRowsInto(dst, src []float64, rows, cols int) {
	if cols <= 0 || len(dst) < rows*cols || len(src) < rows*cols {
		panic(fmt.Sprintf("tensor: SoftmaxRowsInto slices too short for %d×%d", rows, cols))
	}
	for i := 0; i < rows; i++ {
		softmaxInto(dst[i*cols:(i+1)*cols], src[i*cols:(i+1)*cols])
	}
}

// EntropyRows returns the Shannon entropy of each row of a rank-2 tensor of
// probability vectors.
func EntropyRows(p *Tensor) *Tensor {
	p.mustRank(2)
	r, c := p.Shape[0], p.Shape[1]
	out := New(r)
	EntropyRowsInto(out.Data, p.Data, r, c)
	return out
}

// EntropyRowsInto writes the Shannon entropy of each row of p (rows×cols,
// row-major) into dst without allocating. It shares the row kernel with
// EntropyRows.
func EntropyRowsInto(dst, p []float64, rows, cols int) {
	if cols <= 0 || len(dst) < rows || len(p) < rows*cols {
		panic(fmt.Sprintf("tensor: EntropyRowsInto slices too short for %d×%d", rows, cols))
	}
	for i := 0; i < rows; i++ {
		h := 0.0
		for _, v := range p[i*cols : (i+1)*cols] {
			if v > 0 {
				h -= v * math.Log(v)
			}
		}
		dst[i] = h
	}
}

// ReLUInto writes max(src[i], +0) into dst[:len(src)] — +0 for NaN and for
// −0, exactly the value of `if v > 0 { v } else { 0 }`, the loop that serves
// the tail and machines without AVX. That branch is unpredictable on
// post-batch-norm activations (half are negative); VMAXPD has none. dst may
// alias src.
func ReLUInto(dst, src []float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("tensor: ReLUInto dst holds %d of %d elements", len(dst), len(src)))
	}
	i := 0
	if useSIMD && len(src) >= 4 {
		i = len(src) &^ 3
		reluAVX(&dst[0], &src[0], i)
	}
	for ; i < len(src); i++ {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// AffineInto writes g·((src[i]−mean)·invStd) + bt into dst[:len(src)], batch
// norm's inference expression for one channel plane. The vector body and the
// loop that serves the tail and machines without AVX both subtract, multiply,
// multiply and add as separately rounded steps in that order, never fused, so
// they agree bit for bit. dst may alias src.
func AffineInto(dst, src []float64, mean, invStd, g, bt float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("tensor: AffineInto dst holds %d of %d elements", len(dst), len(src)))
	}
	i := 0
	if useSIMD && len(src) >= 4 {
		i = len(src) &^ 3
		affineAVX(&dst[0], &src[0], i, mean, invStd, g, bt)
	}
	for ; i < len(src); i++ {
		dst[i] = g*((src[i]-mean)*invStd) + bt
	}
}

// MaxPoolInto writes the k×k, stride-k max pool of planes h×w planes of src
// (h and w multiples of k) into dst, planes of h/k × w/k. Each window starts
// at −Inf and takes a tap, in row-major window order, when the tap is greater
// — so NaN taps never win, an all-NaN window gives −Inf and a ±0 tie keeps the
// earlier tap. With AVX, k = 2 and output rows a multiple of four wide, the
// vector body decides every window the same way; other shapes take the loop.
func MaxPoolInto(dst, src []float64, planes, h, w, k int) {
	outH, outW := h/k, w/k
	if planes < 0 || k <= 0 || h%k != 0 || w%k != 0 || len(src) < planes*h*w || len(dst) < planes*outH*outW {
		panic(fmt.Sprintf("tensor: MaxPoolInto of %d %dx%d planes, k %d: src holds %d, dst %d", planes, h, w, k, len(src), len(dst)))
	}
	if useSIMD && k == 2 && outW%4 == 0 && planes*outH*outW > 0 {
		maxPool2x2AVX(&dst[0], &src[0], planes*outH, outW)
		return
	}
	for p := 0; p < planes; p++ {
		img, out := src[p*h*w:(p+1)*h*w], dst[p*outH*outW:(p+1)*outH*outW]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < k; ky++ {
					for _, v := range img[(oy*k+ky)*w+ox*k:][:k] {
						if v > best {
							best = v
						}
					}
				}
				out[oy*outW+ox] = best
			}
		}
	}
}

// MixHalvesInto writes (a[i]·0.5 + b[i]·0.5) + r[i] into dst[:len(a)], the
// shake-shake inference mix of two branches and a residual: two multiplies
// and two adds, separately rounded in that order by the vector body and by
// the loop alike. dst may alias any input.
func MixHalvesInto(dst, a, b, r []float64) {
	if len(dst) < len(a) || len(b) < len(a) || len(r) < len(a) {
		panic(fmt.Sprintf("tensor: MixHalvesInto of %d elements: dst holds %d, b %d, r %d", len(a), len(dst), len(b), len(r)))
	}
	i := 0
	if useSIMD && len(a) >= 4 {
		i = len(a) &^ 3
		mixHalvesAVX(&dst[0], &a[0], &b[0], &r[0], i)
	}
	for ; i < len(a); i++ {
		dst[i] = (a[i]*0.5 + b[i]*0.5) + r[i]
	}
}

// HasNaN reports whether any element is NaN or infinite, a guard used by
// training loops to fail fast on divergence.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func mustSameShape(op string, t, u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.Shape, u.Shape))
	}
}

func mustSameSize(op string, t, u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %d vs %d", op, len(t.Data), len(u.Data)))
	}
}
