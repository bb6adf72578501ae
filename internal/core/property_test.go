package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Property-based tests over the gate primitives: these invariants are what
// the convergence argument of Appendix A leans on, so they must hold for
// arbitrary inputs, not just the fixtures.

func TestPropProportionsFormDistribution(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		k := int(kRaw)%6 + 1
		assign := make([]int, len(raw))
		for i, r := range raw {
			assign[i] = int(r) % k
		}
		props := Proportions(assign, k)
		sum := 0.0
		for _, p := range props {
			if p < 0 || p > 1+1e-9 {
				return false
			}
			sum += p
		}
		if len(assign) == 0 {
			return sum == 0
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropControlTargetsPreserveMass(t *testing.T) {
	rng := tensor.NewRNG(1)
	f := func(seed uint8, kRaw uint8, gainRaw uint8) bool {
		k := int(kRaw)%5 + 2
		gain := (float64(gainRaw%99) + 0.5) / 100 // (0, 1)
		r := rng.Split(int64(seed))
		// Random γ on the simplex.
		gamma := make([]float64, k)
		sum := 0.0
		for i := range gamma {
			gamma[i] = r.Uniform(0.01, 1)
			sum += gamma[i]
		}
		for i := range gamma {
			gamma[i] /= sum
		}
		targets := ControlTargets(gamma, gain)
		tSum := 0.0
		for _, v := range targets {
			tSum += v
		}
		// Eq. (4) preserves total mass: Σ target = 1 whenever Σ γ = 1.
		return math.Abs(tSum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropDynamicGateUnitDeltaIsHardGate(t *testing.T) {
	rng := tensor.NewRNG(2)
	f := func(seed uint8, kRaw uint8) bool {
		k := int(kRaw)%5 + 2
		r := rng.Split(int64(seed))
		h := r.RandUniform(0.01, 3, 12, k)
		unit := make([]float64, k)
		for i := range unit {
			unit[i] = 1
		}
		hard := HardGate(h)
		dyn := DynamicGate(h, unit)
		for i := range hard {
			if hard[i] != dyn[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropBalancedAssignCapacitiesExact(t *testing.T) {
	rng := tensor.NewRNG(3)
	f := func(seed uint8, kRaw uint8, nRaw uint8) bool {
		k := int(kRaw)%5 + 2
		n := int(nRaw)%60 + k
		r := rng.Split(int64(seed))
		h := r.RandUniform(0.01, 3, n, k)
		delta := make([]float64, k)
		for i := range delta {
			delta[i] = r.Uniform(0.5, 2)
		}
		// Random target simplex.
		target := make([]float64, k)
		sum := 0.0
		for i := range target {
			target[i] = r.Uniform(0, 1)
			sum += target[i]
		}
		for i := range target {
			target[i] /= sum
		}
		assign := BalancedAssign(h, delta, target)
		if len(assign) != n {
			return false
		}
		// Every expert's count within 1+k of its exact share (largest
		// remainder rounding plus the final fill loop).
		counts := make([]int, k)
		for _, a := range assign {
			if a < 0 || a >= k {
				return false
			}
			counts[a]++
		}
		total := 0
		for i, c := range counts {
			exact := target[i] * float64(n)
			if math.Abs(float64(c)-exact) > float64(k)+1 {
				return false
			}
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSoftArgMinWithinIndexRange(t *testing.T) {
	rng := tensor.NewRNG(4)
	f := func(seed uint8, bRaw uint8) bool {
		r := rng.Split(int64(seed))
		k := 5
		v := make([]float64, k)
		for i := range v {
			v[i] = r.Uniform(0.01, 4)
		}
		b := float64(bRaw)/8 + 0.05
		s, w := SoftArgMin(v, b)
		if s < 0 || s > float64(k-1) {
			return false
		}
		sum := 0.0
		for _, x := range w {
			if x < 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropEntropyMatrixMatchesPerExpert(t *testing.T) {
	// EntropyMatrix's (possibly parallel) fan-out must equal sequential
	// per-expert evaluation exactly.
	cfg := smallConfig(3)
	cfg.K = 3
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	x := rng.RandUniform(0, 1, 9, 144)
	h, probs := EntropyMatrix(tr.experts, x)
	for i, e := range tr.experts {
		p, ent := e.PredictWithEntropy(x)
		if !p.Equal(probs[i]) {
			t.Fatalf("expert %d probs differ", i)
		}
		for b := 0; b < 9; b++ {
			if h.At(b, i) != ent.Data[b] {
				t.Fatalf("expert %d entropy differs at %d", i, b)
			}
		}
	}
}
