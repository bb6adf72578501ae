//go:build !amd64

package tensor

// Non-amd64 platforms always use the portable Go kernel. Because the AVX
// kernel avoids fused multiply-add and preserves the generic kernel's
// per-element accumulation order, results are bit-identical across
// platforms either way.
const useSIMD = false

// useAVX512 likewise: DirectConv keeps the 4-pixel tiles.
const useAVX512 = false

// WithoutAVX512 runs f: there is no zmm tile to switch off here.
func WithoutAVX512(f func()) { f() }

// WithoutSIMD runs f: the portable loops are the only ones here.
func WithoutSIMD(f func()) { f() }

// PeakGFLOPS is 0: there is no measured peak to read a kernel against.
func PeakGFLOPS(lanes int) float64 { return 0 }

// matMulRangeSIMD is never called when useSIMD is false; this stub keeps
// the dispatch in matMulRange compiling on every platform.
func matMulRangeSIMD(dst, a, b []float64, rowLo, rowHi, k, n int) {
	panic("tensor: matMulRangeSIMD called without SIMD support")
}

// Likewise unreachable: convTile4x8, ReLUInto, AffineInto, MaxPoolInto and
// MixHalvesInto run their portable loops.
func convTile4x8AVX(out0, out1 *float64, chanStride int, in0, in1, w *float64, offs *int, taps int, epi *float64, mode, blocks int) {
	panic("tensor: convTile4x8AVX called without SIMD support")
}

func convTile4x16AVX512(out0, out1 *float64, chanStride int, in0, in1, w *float64, offs *int, taps int, epi *float64, mode, blocks int) {
	panic("tensor: convTile4x16AVX512 called without SIMD support")
}

func reluAVX(dst, src *float64, n int) { panic("tensor: reluAVX called without SIMD support") }

func affineAVX(dst, src *float64, n int, mean, invStd, gamma, beta float64) {
	panic("tensor: affineAVX called without SIMD support")
}

func maxPool2x2AVX(dst, src *float64, rows, outW int) {
	panic("tensor: maxPool2x2AVX called without SIMD support")
}

func mixHalvesAVX(dst, a, b, r *float64, n int) {
	panic("tensor: mixHalvesAVX called without SIMD support")
}
