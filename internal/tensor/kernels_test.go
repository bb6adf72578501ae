package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The Into/slice kernel variants exist for the nn inference snapshots; these
// tests pin them to their allocating counterparts bit for bit.

func TestGEMMAccMatchesMatMul(t *testing.T) {
	rng := NewRNG(11)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 4}, {16, 64, 256}, {63, 65, 17}, {130, 7, 65}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := rng.Randn(m, k)
		b := rng.Randn(k, n)
		want := MatMul(a, b)
		got := make([]float64, m*n)
		GEMMAcc(got, a.Data, b.Data, m, k, n)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("GEMMAcc diverges from MatMul at %d for %v", i, dims)
			}
		}
	}
}

func TestGEMMAccPanicsOnShortSlices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GEMMAcc accepted short slices")
		}
	}()
	GEMMAcc(make([]float64, 3), make([]float64, 4), make([]float64, 4), 2, 2, 2)
}

func TestSoftmaxRowsIntoAliasedMatchesSoftmaxRows(t *testing.T) {
	rng := NewRNG(13)
	logits := rng.Randn(9, 6)
	want := SoftmaxRows(logits)
	got := logits.Clone()
	SoftmaxRowsInto(got.Data, got.Data, 9, 6) // in place over its own input
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("aliased SoftmaxRowsInto diverges from SoftmaxRows at %d", i)
		}
	}
	ent := make([]float64, 9)
	EntropyRowsInto(ent, got.Data, 9, 6)
	wantEnt := EntropyRows(want)
	for i := range ent {
		if math.Float64bits(ent[i]) != math.Float64bits(wantEnt.Data[i]) {
			t.Fatalf("EntropyRowsInto diverges from EntropyRows at %d", i)
		}
	}
}

// TestMatMulPartitionInvariant pins a property the concurrent fan-out relies
// on: any row partition of the kernel produces bit-identical results, so
// scheduling (worker count, queue fallbacks) can never change an answer.
func TestMatMulPartitionInvariant(t *testing.T) {
	rng := NewRNG(14)
	const m, k, n = 37, 50, 23
	a := rng.Randn(m, k)
	b := rng.Randn(k, n)
	whole := make([]float64, m*n)
	matMulRange(whole, a.Data, b.Data, 0, m, k, n)
	for _, split := range []int{1, 2, 16, 36} {
		parts := make([]float64, m*n)
		matMulRange(parts, a.Data, b.Data, 0, split, k, n)
		matMulRange(parts, a.Data, b.Data, split, m, k, n)
		for i := range parts {
			if math.Float64bits(parts[i]) != math.Float64bits(whole[i]) {
				t.Fatalf("split at row %d diverges at %d", split, i)
			}
		}
	}
}

// specialBits are the float64 patterns on which vector and scalar code are
// most likely to part ways: zeros and NaNs of both signs, infinities,
// subnormals, and a few normals.
var specialBits = []uint64{
	0, 1 << 63, // ±0
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0xfff4000000000002, // quiet and signalling NaN, both signs
	1, 1<<63 | 1, 0x000fffffffffffff, 0x800fffffffffffff, // subnormals
	math.Float64bits(1.5), math.Float64bits(-1.5), math.Float64bits(math.MaxFloat64), math.Float64bits(-math.SmallestNonzeroFloat64),
}

// special is entry i (mod its length) of specialBits as a float64.
func special(i int) float64 { return math.Float64frombits(specialBits[i%len(specialBits)]) }

// simdLegs are the two ways an element kernel can run: the machine's vector
// body (the portable loop where there is none) and the portable loop alone.
var simdLegs = []struct {
	name string
	run  func(func())
}{{"machine's", func(f func()) { f() }}, {"portable", WithoutSIMD}}

// sameBits fails the test at the first element of got whose bits differ from
// want's.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (simd %v): [%d] = %x, want %x", what, useSIMD, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// affineParams are (mean, invStd, g, bt) folds for AffineInto: an ordinary
// one, signed zeros, the edges of the exponent range and infinite factors.
var affineParams = [][4]float64{
	{0.25, 3.5, -1.75, 0.5},
	{math.Copysign(0, -1), 1, 1, math.Copysign(0, -1)},
	{-1e308, 1e10, -2, 5e-324},
	{math.Inf(1), 2, 0.5, 1},
	{0, math.Inf(-1), 1e-300, math.Inf(1)},
}

// TestAffineIntoBitPatterns pins batch norm's vector affine to the scalar
// expression g·((x−mean)·invStd) + bt on every special value, at every length
// from 0 to 67 so each value lands in the vector body and in the tail, with
// the machine's kernel and with the portable loop.
func TestAffineIntoBitPatterns(t *testing.T) {
	for _, leg := range simdLegs {
		leg.run(func() {
			for n := 0; n <= 67; n++ {
				for _, p := range affineParams {
					src, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
					for i := range src {
						src[i] = special(i + n)
						want[i] = p[2]*((src[i]-p[0])*p[1]) + p[3]
					}
					AffineInto(got, src, p[0], p[1], p[2], p[3])
					sameBits(t, fmt.Sprintf("%s AffineInto n=%d %v", leg.name, n, p), got, want)
				}
			}
		})
	}
}

// TestMixHalvesIntoBitPatterns pins the shake-shake mix to the scalar
// (a·0.5 + b·0.5) + r, its three inputs cycling through the special values
// at different strides so NaNs, infinities and zeros meet one another. Where
// both operands of one add are NaN, IEEE 754 leaves the payload of the result
// to the implementation — x86 keeps the first operand's, and Go may order a
// commutative add either way — so there the result need only be a NaN;
// everywhere else it must match bit for bit.
func TestMixHalvesIntoBitPatterns(t *testing.T) {
	nan := math.IsNaN
	for _, leg := range simdLegs {
		leg.run(func() {
			for n := 0; n <= 67; n++ {
				a, b, r := make([]float64, n), make([]float64, n), make([]float64, n)
				got, want := make([]float64, n), make([]float64, n)
				for i := range a {
					a[i], b[i], r[i] = special(i), special(3*i+n), special(5*i+2)
					want[i] = (a[i]*0.5 + b[i]*0.5) + r[i]
				}
				MixHalvesInto(got, a, b, r)
				for i := range got {
					v1, v2 := a[i]*0.5, b[i]*0.5
					if (nan(v1) && nan(v2) || nan(v1+v2) && nan(r[i])) && nan(got[i]) {
						got[i] = want[i] // two NaNs met in one add: any NaN will do
					}
				}
				sameBits(t, fmt.Sprintf("%s MixHalvesInto n=%d", leg.name, n), got, want)
			}
		})
	}
}

// poolCase is one MaxPoolInto geometry: planes of h×w, window k.
type poolCase struct{ planes, h, w, k int }

// poolCases: shapes the vector body takes (k = 2, output rows a multiple of
// four wide, SS-14's two pools among them) and shapes that keep the loop —
// 6- and 1-wide output rows, a 3×3 window — plus empty ones.
var poolCases = []poolCase{
	{1, 2, 8, 2}, {3, 4, 16, 2}, {2, 6, 24, 2}, {12, 32, 32, 2}, {24, 16, 16, 2},
	{2, 4, 12, 2}, {3, 2, 2, 2}, {3, 6, 9, 3}, {2, 9, 12, 3},
	{0, 4, 8, 2}, {2, 0, 8, 2},
}

// maxPoolReference is the scalar max pool of one window after another: from
// −Inf, take a tap when it is greater, in row-major window order.
func maxPoolReference(src []float64, c poolCase) []float64 {
	outH, outW := c.h/c.k, c.w/c.k
	out := make([]float64, c.planes*outH*outW)
	for p := 0; p < c.planes; p++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < c.k; ky++ {
					for kx := 0; kx < c.k; kx++ {
						if v := src[(p*c.h+oy*c.k+ky)*c.w+ox*c.k+kx]; v > best {
							best = v
						}
					}
				}
				out[(p*outH+oy)*outW+ox] = best
			}
		}
	}
	return out
}

// poolInput fills a case's input with special values at random, then sets
// the first four windows of the first plane, where there is room, by hand:
// all NaN, a +0/−0 tie, a −0/+0 tie among NaNs, and all −Inf.
func poolInput(c poolCase, rng *RNG) []float64 {
	src := make([]float64, c.planes*c.h*c.w)
	for i := range src {
		src[i] = special(rng.Intn(len(specialBits)))
	}
	if c.k != 2 || c.planes == 0 || c.h < 2 || c.w < 8 {
		return src
	}
	neg0, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(-1)
	windows := [4][4]float64{{nan, -nan, special(6), special(7)}, {0, neg0, neg0, 0}, {nan, neg0, 0, nan}, {inf, inf, inf, inf}}
	for j, win := range windows {
		src[2*j], src[2*j+1], src[c.w+2*j], src[c.w+2*j+1] = win[0], win[1], win[2], win[3]
	}
	return src
}

// TestMaxPoolIntoBitPatterns pins MaxPoolInto to the scalar window scan on
// NaN taps, ±0 ties and all-−Inf windows, with the machine's kernel and with
// the portable loop, over shapes that take the vector body and shapes that
// must not.
func TestMaxPoolIntoBitPatterns(t *testing.T) {
	for _, leg := range simdLegs {
		leg.run(func() {
			rng := NewRNG(23)
			for _, c := range poolCases {
				src := poolInput(c, rng)
				want := maxPoolReference(src, c)
				got := make([]float64, len(want))
				MaxPoolInto(got, src, c.planes, c.h, c.w, c.k)
				sameBits(t, fmt.Sprintf("%s MaxPoolInto %+v", leg.name, c), got, want)
			}
		})
	}
}

func TestStepKernelsPanicOnShortSlices(t *testing.T) {
	for name, call := range map[string]func(){
		"AffineInto":    func() { AffineInto(make([]float64, 3), make([]float64, 4), 0, 1, 1, 0) },
		"MixHalvesInto": func() { MixHalvesInto(make([]float64, 4), make([]float64, 4), make([]float64, 4), make([]float64, 3)) },
		"MaxPoolInto":   func() { MaxPoolInto(make([]float64, 3), make([]float64, 16), 1, 4, 4, 2) },
		"MaxPoolInto k": func() { MaxPoolInto(make([]float64, 4), make([]float64, 16), 1, 4, 4, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a short or misfit slice", name)
				}
			}()
			call()
		}()
	}
}

func BenchmarkMatMul16x256x256(b *testing.B) {
	rng := NewRNG(15)
	a := rng.Randn(16, 256)
	w := rng.Randn(256, 256)
	dst := New(16, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, w)
	}
}
