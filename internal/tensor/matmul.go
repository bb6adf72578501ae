package tensor

import "fmt"

// blockSize is the cache-blocking tile edge for matrix multiplication.
// 64×64 float64 tiles (32 KiB working set per pair) fit comfortably in L1/L2
// on both server CPUs and the ARM cores the paper's edge devices use.
const blockSize = 64

// MatMul returns a × b for rank-2 tensors, with a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	a.mustRank(2)
	b.mustRank(2)
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	matMulInto(out.Data, a.Data, b.Data, m, k, n)
	return out
}

// MatMulInto computes dst = a × b, reusing dst's storage. dst must be m×n
// and must not alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	a.mustRank(2)
	b.mustRank(2)
	dst.mustRank(2)
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shapes %v = %v × %v invalid", dst.Shape, a.Shape, b.Shape))
	}
	dst.Zero()
	matMulInto(dst.Data, a.Data, b.Data, m, k, n)
}

// GEMMAcc accumulates a×b into dst working on raw row-major slices: dst
// (m×n) += a (m×k) × b (k×n). dst is NOT zeroed — callers that want a plain
// product must clear it first. This is the allocation-free entry point used
// by the nn inference snapshots; it shares the exact kernel (and therefore
// the exact floating-point rounding) with MatMul.
func GEMMAcc(dst, a, b []float64, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || len(dst) < m*n || len(a) < m*k || len(b) < k*n {
		panic(fmt.Sprintf("tensor: GEMMAcc slices too short for %d×%d × %d×%d", m, k, k, n))
	}
	matMulInto(dst, a, b, m, k, n)
}

// matMulInto accumulates a×b into dst (dst must be zeroed by the caller or
// freshly allocated), fanning large products out across the persistent
// kernel worker pool (see parallel.go). Output rows are partitioned across
// workers, so the result is bit-identical to the serial kernel regardless
// of scheduling.
func matMulInto(dst, a, b []float64, m, k, n int) {
	work := m * k * n
	if work < parallelThreshold || gemmWorkerCount() < 2 || m < 2 {
		matMulRange(dst, a, b, 0, m, k, n)
		return
	}
	gemmParallel(dst, a, b, m, k, n)
}

// sparseMinN is the output width below which the gather-based sparsity
// fallback is never taken: a skipped term only saves an n-element pass, so
// for narrow outputs the per-block gather bookkeeping costs more than the
// multiplies it avoids. Narrow outputs (convolutions with few channels,
// final classifier layers) instead dispatch to accRowNarrow, whose
// register-resident accumulators make a zero skip nearly free.
const sparseMinN = 64

// matMulRange computes output rows [rowLo, rowHi) of dst += a×b with cache
// blocking, a 2-row × 4-k register tile, and sparsity-adaptive dispatch.
//
// The dense tile keeps the running sum for each output element in a
// register across four k terms (quartering the dst load/store traffic of
// the rolled loop) and shares each loaded b row between two independent
// output rows (halving b traffic and giving the pipeline two independent
// dependency chains).
//
// Hidden-layer inputs passed a ReLU that zeroed roughly half the
// activations, so for wide outputs each cache block first scans its slice
// of the two a rows: fully dense blocks (raw pixels, im2col patches of a
// first layer, the benchmark's random matrices) run the dense tile, blocks
// with zeros fall back per row to accRowBlockSparse, which gathers the
// nonzero terms once and fuses them four at a time. The skip is exact:
// adding av·b[j] with av == 0 contributes +0.0, which cannot change any
// finite running sum (and a sum that only ever accumulates products of
// finite values is never -0.0).
//
// Every path adds the surviving terms of each output element one at a time
// in increasing-k order, so all dispatch decisions — tile shape, sparsity
// fallback, row partitioning across workers — round every partial sum
// identically: the result is bit-for-bit the same regardless of scheduling.
func matMulRange(dst, a, b []float64, rowLo, rowHi, k, n int) {
	if useSIMD {
		matMulRangeSIMD(dst, a, b, rowLo, rowHi, k, n)
		return
	}
	sparseOK := n >= sparseMinN
	for i0 := rowLo; i0 < rowHi; i0 += blockSize {
		iMax := min(i0+blockSize, rowHi)
		for k0 := 0; k0 < k; k0 += blockSize {
			kMax := min(k0+blockSize, k)
			if !sparseOK {
				for i := i0; i < iMax; i++ {
					accRowNarrow(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], b, k0, kMax, n)
				}
				continue
			}
			i := i0
			for ; i+2 <= iMax; i += 2 {
				arow := a[i*k : (i+1)*k]
				arow2 := a[(i+1)*k : (i+2)*k]
				drow := dst[i*n : (i+1)*n]
				drow2 := dst[(i+1)*n : (i+2)*n]
				if !(rowBlockDense(arow, k0, kMax) && rowBlockDense(arow2, k0, kMax)) {
					accRowBlockSparse(drow, arow, b, k0, kMax, n)
					accRowBlockSparse(drow2, arow2, b, k0, kMax, n)
					continue
				}
				kk := k0
				for ; kk+4 <= kMax; kk += 4 {
					p0 := arow[kk]
					p1 := arow[kk+1]
					p2 := arow[kk+2]
					p3 := arow[kk+3]
					q0 := arow2[kk]
					q1 := arow2[kk+1]
					q2 := arow2[kk+2]
					q3 := arow2[kk+3]
					b0 := b[kk*n : kk*n+n]
					b1 := b[(kk+1)*n : (kk+1)*n+n]
					b2 := b[(kk+2)*n : (kk+2)*n+n]
					b3 := b[(kk+3)*n : (kk+3)*n+n]
					for j := range drow {
						w0 := b0[j]
						w1 := b1[j]
						w2 := b2[j]
						w3 := b3[j]
						s := drow[j]
						s += p0 * w0
						s += p1 * w1
						s += p2 * w2
						s += p3 * w3
						drow[j] = s
						r := drow2[j]
						r += q0 * w0
						r += q1 * w1
						r += q2 * w2
						r += q3 * w3
						drow2[j] = r
					}
				}
				for ; kk < kMax; kk++ {
					av := arow[kk]
					av2 := arow2[kk]
					brow := b[kk*n : (kk+1)*n]
					for j, bv := range brow {
						drow[j] += av * bv
						drow2[j] += av2 * bv
					}
				}
			}
			for ; i < iMax; i++ {
				accRowBlockSparse(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], b, k0, kMax, n)
			}
		}
	}
}

// accRowNarrow accumulates the terms kk ∈ [k0, kMax) of one output row for
// narrow outputs (n < sparseMinN — convolution channels, classifier
// logits). The output row is walked in chunks of eight elements held in
// registers with k as the innermost loop, so within a block each output
// element costs one load and one store total instead of one per k-quad, and
// a zero activation is skipped for the price of a single compare — no
// gather bookkeeping. Terms still accumulate one at a time in increasing-k
// order, so the result is bit-identical to every other path (a skipped
// +0.0 term cannot change a finite sum; see matMulRange).
func accRowNarrow(drow, arow, b []float64, k0, kMax, n int) {
	j0 := 0
	for ; j0+8 <= n; j0 += 8 {
		s0, s1, s2, s3 := drow[j0], drow[j0+1], drow[j0+2], drow[j0+3]
		s4, s5, s6, s7 := drow[j0+4], drow[j0+5], drow[j0+6], drow[j0+7]
		off := k0*n + j0
		for kk := k0; kk < kMax; kk++ {
			av := arow[kk]
			if av != 0 {
				bq := b[off : off+8 : off+8]
				s0 += av * bq[0]
				s1 += av * bq[1]
				s2 += av * bq[2]
				s3 += av * bq[3]
				s4 += av * bq[4]
				s5 += av * bq[5]
				s6 += av * bq[6]
				s7 += av * bq[7]
			}
			off += n
		}
		drow[j0], drow[j0+1], drow[j0+2], drow[j0+3] = s0, s1, s2, s3
		drow[j0+4], drow[j0+5], drow[j0+6], drow[j0+7] = s4, s5, s6, s7
	}
	for ; j0+4 <= n; j0 += 4 {
		s0, s1, s2, s3 := drow[j0], drow[j0+1], drow[j0+2], drow[j0+3]
		off := k0*n + j0
		for kk := k0; kk < kMax; kk++ {
			av := arow[kk]
			if av != 0 {
				bq := b[off : off+4 : off+4]
				s0 += av * bq[0]
				s1 += av * bq[1]
				s2 += av * bq[2]
				s3 += av * bq[3]
			}
			off += n
		}
		drow[j0], drow[j0+1], drow[j0+2], drow[j0+3] = s0, s1, s2, s3
	}
	for ; j0 < n; j0++ {
		s := drow[j0]
		off := k0*n + j0
		for kk := k0; kk < kMax; kk++ {
			if av := arow[kk]; av != 0 {
				s += av * b[off]
			}
			off += n
		}
		drow[j0] = s
	}
}

// rowBlockDense reports whether arow[k0:kMax] is free of zeros; sparse rows
// exit on the first zero found.
func rowBlockDense(arow []float64, k0, kMax int) bool {
	for _, v := range arow[k0:kMax] {
		if v == 0 {
			return false
		}
	}
	return true
}

// accRowBlockSparse accumulates the terms kk ∈ [k0, kMax) of one output
// row — drow += Σ arow[kk]·b[kk·n : kk·n+n] — skipping zero activations. It
// gathers the nonzero terms of the block once into stack buffers, then
// fuses them four at a time into passes over the output row, preserving the
// increasing-k, one-term-at-a-time accumulation order of the dense tile
// (see matMulRange). At 50% ReLU sparsity this halves both the multiplies
// and the dst traffic of the dense tile.
func accRowBlockSparse(drow, arow, b []float64, k0, kMax, n int) {
	var vals [blockSize]float64
	var offs [blockSize]int
	ns := 0
	for kk := k0; kk < kMax; kk++ {
		if v := arow[kk]; v != 0 {
			vals[ns] = v
			offs[ns] = kk * n
			ns++
		}
	}
	t := 0
	for ; t+4 <= ns; t += 4 {
		a0, a1, a2, a3 := vals[t], vals[t+1], vals[t+2], vals[t+3]
		b0 := b[offs[t] : offs[t]+n]
		b1 := b[offs[t+1] : offs[t+1]+n]
		b2 := b[offs[t+2] : offs[t+2]+n]
		b3 := b[offs[t+3] : offs[t+3]+n]
		for j := range drow {
			s := drow[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			drow[j] = s
		}
	}
	switch ns - t {
	case 1:
		a0 := vals[t]
		b0 := b[offs[t] : offs[t]+n]
		for j := range drow {
			drow[j] += a0 * b0[j]
		}
	case 2:
		a0, a1 := vals[t], vals[t+1]
		b0 := b[offs[t] : offs[t]+n]
		b1 := b[offs[t+1] : offs[t+1]+n]
		for j := range drow {
			s := drow[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			drow[j] = s
		}
	case 3:
		a0, a1, a2 := vals[t], vals[t+1], vals[t+2]
		b0 := b[offs[t] : offs[t]+n]
		b1 := b[offs[t+1] : offs[t+1]+n]
		b2 := b[offs[t+2] : offs[t+2]+n]
		for j := range drow {
			s := drow[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			drow[j] = s
		}
	}
}

// MatMulTransA returns aᵀ × b with a (k×m) and b (k×n), avoiding an explicit
// transpose. This is the weight-gradient product of a dense layer.
func MatMulTransA(a, b *Tensor) *Tensor {
	a.mustRank(2)
	b.mustRank(2)
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimensions differ: %vᵀ × %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		arow := a.Data[kk*m : (kk+1)*m]
		brow := b.Data[kk*n : (kk+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTransB returns a × bᵀ with a (m×k) and b (n×k), avoiding an explicit
// transpose. This is the input-gradient product of a dense layer.
func MatMulTransB(a, b *Tensor) *Tensor {
	a.mustRank(2)
	b.mustRank(2)
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions differ: %v × %vᵀ", a.Shape, b.Shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range arow {
				s += av * brow[kk]
			}
			drow[j] = s
		}
	}
	return out
}

// RowBlock returns the half-open row range [lo, hi) of a rank-2 tensor as a
// view sharing backing storage. It is the partitioning primitive of the
// MPI-Matrix scheme, which splits weight matrices across edge nodes by rows.
func RowBlock(t *Tensor, lo, hi int) *Tensor {
	t.mustRank(2)
	r, c := t.Shape[0], t.Shape[1]
	if lo < 0 || hi > r || lo > hi {
		panic(fmt.Sprintf("tensor: RowBlock [%d,%d) out of range for %d rows", lo, hi, r))
	}
	return &Tensor{Data: t.Data[lo*c : hi*c : hi*c], Shape: []int{hi - lo, c}}
}

// ConcatRows stacks rank-2 tensors with equal column counts vertically into
// a new tensor, the gather step of row-partitioned matrix multiplication.
func ConcatRows(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: ConcatRows of no tensors")
	}
	c := parts[0].Cols()
	rows := 0
	for _, p := range parts {
		if p.Cols() != c {
			panic(fmt.Sprintf("tensor: ConcatRows column mismatch %d vs %d", p.Cols(), c))
		}
		rows += p.Rows()
	}
	out := New(rows, c)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Data)
		off += len(p.Data)
	}
	return out
}
