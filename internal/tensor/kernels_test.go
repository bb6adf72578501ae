package tensor

import (
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
