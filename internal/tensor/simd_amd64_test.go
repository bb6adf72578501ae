//go:build amd64

package tensor

import (
	"math"
	"testing"
)

// TestMatMulSIMDMatchesGeneric pins the bit-exactness contract of the AVX
// kernel: for every shape — register-tile widths, odd tails, k extents above
// and below the k-blocking threshold — the SIMD traversal must produce
// float64 results bit-identical to the portable Go kernel, because both
// apply the same sequence of IEEE-754 operations per output element (no
// FMA, same increasing-k order, same exact zero skip).
func TestMatMulSIMDMatchesGeneric(t *testing.T) {
	if !useSIMD {
		t.Skip("no AVX on this machine")
	}
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},   // scalar-tail only
		{2, 9, 4},   // exactly one 4-wide tile
		{4, 16, 8},  // 8-wide tile
		{4, 16, 10}, // 8-wide + 2 tail
		{5, 27, 12}, // 12-wide tile (SS-14 width)
		{3, 8, 15},  // 12-wide + 3 tail
		{4, 32, 16},
		{4, 32, 24},
		{7, 50, 33}, // 32-wide + 1 tail
		{16, 64, 47},
		{16, 256, 256}, // MLP hidden shape
		{2, 1200, 64},  // k·n above simdKBlockMax: exercises k-slab blocking
		{16, 700, 100}, // k-slab blocking with tails
	}
	rng := NewRNG(99)
	for _, sh := range shapes {
		for _, density := range []float64{1.0, 0.5, 0.05} {
			a := make([]float64, sh.m*sh.k)
			for i := range a {
				if rng.Float64() < density {
					a[i] = rng.Randn(1, 1).Data[0]
				}
			}
			b := rng.Randn(sh.k, sh.n).Data
			// Non-zero starting dst so accumulation order matters too.
			init := rng.Randn(sh.m, sh.n).Data

			got := append([]float64(nil), init...)
			matMulRangeSIMD(got, a, b, 0, sh.m, sh.k, sh.n)

			want := append([]float64(nil), init...)
			WithoutSIMD(func() { matMulRange(want, a, b, 0, sh.m, sh.k, sh.n) })

			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("m=%d k=%d n=%d density=%.2f: dst[%d] = %x (SIMD) vs %x (generic)",
						sh.m, sh.k, sh.n, density, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestMatMulSIMDNaNNotSkipped pins the zero-skip edge case: a NaN
// activation compares unordered against zero and must NOT be skipped —
// it poisons its output row exactly as the portable `av != 0` test does.
func TestMatMulSIMDNaNNotSkipped(t *testing.T) {
	if !useSIMD {
		t.Skip("no AVX on this machine")
	}
	const k, n = 6, 16
	a := make([]float64, k)
	a[2] = math.NaN()
	b := NewRNG(7).Randn(k, n).Data

	got := make([]float64, n)
	matMulRangeSIMD(got, a, b, 0, 1, k, n)
	for j, v := range got {
		if !math.IsNaN(v) {
			t.Fatalf("dst[%d] = %v, want NaN (NaN activation must not be skipped)", j, v)
		}
	}
}

// BenchmarkPeakMulAdd measures the no-FMA float64 ceiling of one core at
// ymm and at zmm width — eight independent register-only VMULPD/VADDPD
// chains, no loads — the figures BenchmarkConvTile and nn's
// BenchmarkForwardSS14 are read against.
func BenchmarkPeakMulAdd(b *testing.B) {
	for _, lanes := range []int{4, 8} {
		b.Run(regName(lanes), func(b *testing.B) {
			if !peakRuns(lanes) {
				b.Skip("no ", regName(lanes), " registers on this machine")
			}
			const iters = 1 << 16
			for i := 0; i < b.N; i++ {
				peakMulAddAVX(iters, lanes)
			}
			b.ReportMetric(16*float64(lanes*iters)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func regName(lanes int) string {
	if lanes == 8 {
		return "zmm"
	}
	return "ymm"
}
