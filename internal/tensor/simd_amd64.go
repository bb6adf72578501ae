//go:build amd64

package tensor

import "time"

// SIMD GEMM inner kernel (AVX). The assembly routine accumulates a column
// chunk of one output row — dst[j] += arow[t]·b[t·stride+j] — holding the
// chunk in ymm registers across the whole k extent, so dst memory traffic
// is one load and one store per chunk instead of one per term. Terms are
// walked in increasing-t order and added one at a time per element,
// exactly like the portable Go kernel. It deliberately uses separate
// vector multiply and add instructions rather than fused multiply-add:
// FMA skips the intermediate rounding, which would change results
// relative to the portable path. With mul and add kept separate, each
// output element undergoes the identical sequence of IEEE-754 operations
// on both paths, so the SIMD and generic kernels produce bit-identical
// output (pinned by TestMatMulSIMDMatchesGeneric).
//
// A zero activation skips the whole chunk pass — one compare per term —
// which is what makes ReLU-sparse hidden layers cheap; the skip is exact
// because a +0.0 term cannot change a finite sum (see matMulRange).

// useSIMD gates the assembly kernel: AVX must be present and enabled by
// the OS (checked via XGETBV at init).
var useSIMD = cpuHasAVX()

// cpuHasAVX reports whether the CPU and OS support AVX ymm state.
func cpuHasAVX() bool

// useAVX512 gates the zmm convolution tile: AVX-512F must be present and
// the OS must save zmm state. NewDirectConv reads it once per convolution.
var useAVX512 = useSIMD && cpuHasAVX512()

// cpuHasAVX512 reports whether the CPU and OS support AVX-512F zmm state.
func cpuHasAVX512() bool

// WithoutAVX512 runs f with the zmm convolution tile switched off, so every
// DirectConv built inside f takes the 4-pixel ymm tiles: tests and
// benchmarks outside this package compare the two tile sets with it. It
// must not race with NewDirectConv.
func WithoutAVX512(f func()) {
	saved := useAVX512
	useAVX512 = false
	defer func() { useAVX512 = saved }()
	f()
}

// WithoutSIMD runs f with every assembly kernel switched off, so tests
// outside this package can run the portable loops on a machine that would
// never select them. It must not race with any kernel call.
func WithoutSIMD(f func()) {
	saved := useSIMD
	useSIMD = false
	defer func() { useSIMD = saved }()
	WithoutAVX512(f)
}

// gemmRowChunkAVX computes dst[j] += arow[t]·b[t·stride+j] for t ∈ [0, kn)
// and j ∈ [0, 4·groups). groups selects the register tile — 1, 2, 3, 4, 6
// or 8 groups of four columns (4 to 32 columns). dst must have 4·groups
// elements and b kn rows of at least 4·groups elements at the given row
// stride.
//
//go:noescape
func gemmRowChunkAVX(dst, arow, b *float64, kn, stride, groups int)

// simdKBlockMax bounds the k extent handed to one gemmRowChunkAVX call
// when the b operand is too large to sit in cache: k·n beyond this is
// walked in blockSize k-slabs so each slab of b stays resident while every
// row in the row block consumes it. Smaller b operands (all the zoo's
// convolution kernels) take the full k extent in one call, paying a single
// dst load/store round per row.
const simdKBlockMax = 1 << 15

// matMulRangeSIMD is the AVX traversal of output rows [rowLo, rowHi): the
// generic kernel's cache-blocked order with register-tile column chunks as
// the inner loop. Columns split greedily into register-tile chunks (32
// down to 4 wide) plus a portable scalar tail for the last n mod 4 columns
// (same increasing-k order, so the tail is bit-identical too).
func matMulRangeSIMD(dst, a, b []float64, rowLo, rowHi, k, n int) {
	if k == 0 || n == 0 {
		return
	}
	kBlock := k
	if k*n > simdKBlockMax {
		kBlock = blockSize
	}
	for i0 := rowLo; i0 < rowHi; i0 += blockSize {
		iMax := min(i0+blockSize, rowHi)
		for k0 := 0; k0 < k; k0 += kBlock {
			kMax := min(k0+kBlock, k)
			kn := kMax - k0
			for i := i0; i < iMax; i++ {
				arow := a[i*k+k0 : i*k+kMax]
				drow := dst[i*n : (i+1)*n]
				brow := b[k0*n:]
				j0 := 0
				for n-j0 >= 4 {
					var groups int
					switch rem := n - j0; {
					case rem >= 32:
						groups = 8
					case rem >= 24:
						groups = 6
					case rem >= 16:
						groups = 4
					case rem >= 12:
						groups = 3
					case rem >= 8:
						groups = 2
					default:
						groups = 1
					}
					gemmRowChunkAVX(&drow[j0], &arow[0], &brow[j0], kn, n, groups)
					j0 += 4 * groups
				}
				for ; j0 < n; j0++ {
					s := drow[j0]
					for t := 0; t < kn; t++ {
						if av := arow[t]; av != 0 {
							s += av * brow[t*n+j0]
						}
					}
					drow[j0] = s
				}
			}
		}
	}
}

// convTile4x8AVX is the unit-stride direct-convolution tile; convTile4x8
// (conv.go) states what it computes. Pointers address the first pixel of
// each four-pixel group, chanStride counts elements, epi addresses the
// first block's 20 epilogue values, mode holds the epiNorm/epiReLU bits and
// blocks counts the 4-channel blocks run at this tile position. It checks no
// bounds: DirectConv.ForwardPadded proves them.
//
//go:noescape
func convTile4x8AVX(out0, out1 *float64, chanStride int, in0, in1, w *float64, offs *int, taps int, epi *float64, mode, blocks int)

// convTile4x16AVX512 is convTile4x8AVX at zmm width: each pointer addresses
// the first pixel of an eight-pixel group. Only NewDirectConv's wide tile
// set, chosen under useAVX512, calls it.
//
//go:noescape
func convTile4x16AVX512(out0, out1 *float64, chanStride int, in0, in1, w *float64, offs *int, taps int, epi *float64, mode, blocks int)

// reluAVX is ReLUInto's vector body; n is a multiple of 4.
//
//go:noescape
func reluAVX(dst, src *float64, n int)

// affineAVX is AffineInto's vector body; n is a multiple of 4.
//
//go:noescape
func affineAVX(dst, src *float64, n int, mean, invStd, gamma, beta float64)

// maxPool2x2AVX is MaxPoolInto's vector body for k = 2: rows output rows of
// outW pixels, outW a multiple of 4, from rows pairs of 2·outW-pixel input
// rows.
//
//go:noescape
func maxPool2x2AVX(dst, src *float64, rows, outW int)

// mixHalvesAVX is MixHalvesInto's vector body; n is a multiple of 4.
//
//go:noescape
func mixHalvesAVX(dst, a, b, r *float64, n int)

// peakMulAddAVX runs iters rounds of eight independent register-only
// VMULPD/VADDPD pairs on registers of lanes float64s (4: ymm, 8: zmm), the
// machine peak of BenchmarkPeakMulAdd and PeakGFLOPS.
func peakMulAddAVX(iters, lanes int)

// PeakGFLOPS measures the no-FMA float64 ceiling of one core at lanes-wide
// registers (4: ymm, 8: zmm) — eight independent register-only multiply/add
// chains, no loads — as the best of fifty short runs, in GFLOP/s, or 0 where
// that width cannot run. Kernels and forward passes are read as a share of
// it (BenchmarkConvTile, internal/bench's forward gate).
func PeakGFLOPS(lanes int) float64 {
	if !peakRuns(lanes) {
		return 0
	}
	const iters = 1 << 16
	best := 0.0
	for r := 0; r < 50; r++ {
		start := time.Now()
		peakMulAddAVX(iters, lanes)
		best = max(best, 16*float64(lanes*iters)/time.Since(start).Seconds()/1e9)
	}
	return best
}

// peakRuns reports whether this machine has lanes-wide registers.
func peakRuns(lanes int) bool { return useSIMD && (lanes == 4 || lanes == 8 && useAVX512) }
