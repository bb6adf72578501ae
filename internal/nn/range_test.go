package nn

import (
	"math"
	"testing"

	"github.com/teamnet/teamnet/internal/tensor"
)

// rangeZooSpecs is every model family the paper evaluates, at the bench
// suite's test-scale geometry (64-pixel digits, 3×8×8 objects, 10 classes),
// and the SS-14 expert at the 3×32×32 the benchmark serves.
func rangeZooSpecs(t *testing.T) []Spec {
	t.Helper()
	specs := []Spec{DigitsBaseline(64, 10)}
	for _, k := range []int{2, 4} {
		s, err := DigitsExpert(k, 64, 10)
		if err != nil {
			t.Fatalf("DigitsExpert(%d): %v", k, err)
		}
		specs = append(specs, s)
	}
	specs = append(specs, ObjectsBaseline(3, 8, 8, 10))
	for _, k := range []int{2, 4} {
		s, err := ObjectsExpert(k, 3, 8, 8, 10)
		if err != nil {
			t.Fatalf("ObjectsExpert(%d): %v", k, err)
		}
		specs = append(specs, s)
	}
	s, err := ObjectsExpert(2, 3, 32, 32, 10)
	if err != nil {
		t.Fatalf("ObjectsExpert(2) at 32×32: %v", err)
	}
	return append(specs, s)
}

func specInputWidth(s Spec) int {
	if s.MLP != nil {
		return s.MLP.Input
	}
	return s.Shake.InC * s.Shake.InH * s.Shake.InW
}

// TestForwardRangeBitExactEveryZooModel pins the split-execution contract:
// for every zoo model and EVERY boundary s, running the head [0, s) locally
// and the tail [s, N) on the result is bitwise-identical to the full
// forward pass. This is the property the partial-offload wire path relies
// on for cross-node answer equivalence.
func TestForwardRangeBitExactEveryZooModel(t *testing.T) {
	rng := tensor.NewRNG(7)
	for i, spec := range rangeZooSpecs(t) {
		net, err := spec.Build(rng.Split(int64(i)))
		if err != nil {
			t.Fatalf("build %s: %v", spec.Label(), err)
		}
		x := rng.Randn(3, specInputWidth(spec))
		net.Forward(x, true) // populate batch-norm running statistics
		snap := MustSnapshot(net)
		n := snap.Steps()
		if n == 0 {
			t.Fatalf("%s: no compiled steps", spec.Label())
		}
		full := snap.Forward(x)
		for s := 0; s <= n; s++ {
			head := snap.ForwardRange(x, 0, s)
			tail := snap.ForwardRange(head, s, n)
			if len(tail.Data) != len(full.Data) {
				t.Fatalf("%s split %d: tail size %d != full %d", spec.Label(), s, len(tail.Data), len(full.Data))
			}
			for j := range tail.Data {
				if math.Float64bits(tail.Data[j]) != math.Float64bits(full.Data[j]) {
					t.Fatalf("%s split %d: element %d differs: %g vs %g",
						spec.Label(), s, j, tail.Data[j], full.Data[j])
				}
			}
			if w := snap.BoundaryWidth(s); w != head.Shape[1] {
				t.Fatalf("%s split %d: BoundaryWidth %d != head width %d", spec.Label(), s, w, head.Shape[1])
			}
		}
	}
}

// TestLayerCostsMatchNetworkFLOPs pins the static profile against the
// layer-level FLOP accounting the edge simulator uses.
func TestLayerCostsMatchNetworkFLOPs(t *testing.T) {
	rng := tensor.NewRNG(11)
	for i, spec := range rangeZooSpecs(t) {
		net, err := spec.Build(rng.Split(int64(i)))
		if err != nil {
			t.Fatalf("build %s: %v", spec.Label(), err)
		}
		snap := MustSnapshot(net)
		costs := snap.LayerCosts()
		if len(costs) != snap.Steps() {
			t.Fatalf("%s: %d costs != %d steps", spec.Label(), len(costs), snap.Steps())
		}
		sum := 0.0
		for j, c := range costs {
			sum += c.FLOPs
			if c.Index != j {
				t.Fatalf("%s: cost %d has index %d", spec.Label(), j, c.Index)
			}
			if c.InWidth <= 0 || c.OutWidth <= 0 {
				t.Fatalf("%s: step %d (%s) has unresolved widths %d→%d", spec.Label(), j, c.Name, c.InWidth, c.OutWidth)
			}
			if j > 0 && costs[j-1].OutWidth != c.InWidth {
				t.Fatalf("%s: width chain broken at step %d: %d != %d", spec.Label(), j, costs[j-1].OutWidth, c.InWidth)
			}
		}
		if want := NetworkFLOPs(net); math.Abs(sum-want) > 1e-6*want {
			t.Fatalf("%s: LayerCosts sum %.0f != NetworkFLOPs %.0f", spec.Label(), sum, want)
		}
		if w := snap.BoundaryWidth(0); w != specInputWidth(spec) {
			t.Fatalf("%s: boundary 0 width %d != input %d", spec.Label(), w, specInputWidth(spec))
		}
	}
}

// TestForwardRangePanicsOutOfRange pins the validation the serving side
// relies on (it recovers these panics into RPC errors).
func TestForwardRangePanicsOutOfRange(t *testing.T) {
	rng := tensor.NewRNG(5)
	net, err := DigitsBaseline(64, 10).Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	snap := MustSnapshot(net)
	x := rng.Randn(1, 64)
	for _, bad := range [][2]int{{-1, 2}, {2, 1}, {0, snap.Steps() + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ForwardRange(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			snap.ForwardRange(x, bad[0], bad[1])
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ForwardRange with wrong input width did not panic")
			}
		}()
		snap.ForwardRange(rng.Randn(1, 63), 0, snap.Steps())
	}()
}
