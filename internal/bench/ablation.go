package bench

import (
	"fmt"
	"math"

	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/nn"
)

// Ablation experiments for the design choices DESIGN.md §5 calls out. They
// are not paper artifacts; they probe the mechanisms the paper asserts:
// the proportional controller (Eq. 4), the meta-estimated sharpness
// (Eq. 6), the arg-min combiner (Section V) and the dynamic gate itself
// (Section IV's "richer gets richer").

// ablationConfig is a small, fast TeamNet configuration shared by the
// ablations so runs stay comparable.
func (l *Lab) ablationConfig(k int) (core.Config, *dataset.Dataset) {
	train, _ := l.Digits()
	cfg := core.Config{
		K: k,
		ExpertSpec: nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{
			Label: "MLP-2", Input: train.Features(), Width: 32, Layers: 2, Classes: 10,
		}},
		Epochs: 20, BatchSize: 50, ExpertLR: 0.05, Seed: l.Opts.Seed + 100,
	}
	return cfg, train
}

// finalDeviation is Σ_i |cumulative_i - 1/K| at the end of training.
func finalDeviation(hist *core.History) float64 {
	dev := 0.0
	set := 1 / float64(hist.K)
	for _, c := range hist.FinalCumulative() {
		dev += math.Abs(c - set)
	}
	return dev
}

// AblationGain sweeps the proportional-controller gain a of Eq. (4) and
// reports the end-of-training partition imbalance and the mean gate
// objective — the controller's operating curve.
func (l *Lab) AblationGain() (*Matrix, error) {
	gains := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	m := &Matrix{
		ID:       "ablation-gain",
		Title:    "controller gain a vs partition balance (K=2, digits)",
		ColNames: []string{"final-imbalance", "mean-gate-J"},
	}
	for _, a := range gains {
		cfg, train := l.ablationConfig(2)
		cfg.Gain = a
		tr, err := core.NewTrainer(cfg)
		if err != nil {
			return nil, err
		}
		_, hist := tr.Train(train)
		meanJ := 0.0
		for _, s := range hist.Stats {
			meanJ += s.GateResult.Objective
		}
		meanJ /= float64(len(hist.Stats))
		m.RowNames = append(m.RowNames, fmt.Sprintf("a=%.1f", a))
		m.Values = append(m.Values, []float64{finalDeviation(hist), meanJ})
	}
	return m, nil
}

// AblationMetaEstimator compares the adaptive sharpness of Eq. (6) against
// pinned values of b, reporting partition balance and the mean inner-loop
// iterations Algorithm 2 needed.
func (l *Lab) AblationMetaEstimator() (*Matrix, error) {
	m := &Matrix{
		ID:       "ablation-meta",
		Title:    "soft-arg-min sharpness: meta-estimated vs fixed (K=2, digits)",
		ColNames: []string{"final-imbalance", "mean-gate-iters"},
	}
	variants := []struct {
		name  string
		fixed float64
	}{
		{"adaptive", 0}, {"b=1", 1}, {"b=10", 10}, {"b=1000", 1000},
	}
	for _, v := range variants {
		cfg, train := l.ablationConfig(2)
		cfg.FixedSharpness = v.fixed
		tr, err := core.NewTrainer(cfg)
		if err != nil {
			return nil, err
		}
		_, hist := tr.Train(train)
		iters := 0.0
		for _, s := range hist.Stats {
			iters += float64(s.GateResult.Iterations)
		}
		iters /= float64(len(hist.Stats))
		m.RowNames = append(m.RowNames, v.name)
		m.Values = append(m.Values, []float64{finalDeviation(hist), iters})
	}
	return m, nil
}

// AblationCombiner compares the arg-min combiner against the
// entropy-weighted majority vote Section V rejects, on the digit teams.
func (l *Lab) AblationCombiner() (*Matrix, error) {
	m := &Matrix{
		ID:       "ablation-combiner",
		Title:    "arg-min combiner vs weighted vote (digits)",
		ColNames: []string{"argmin-acc-%", "vote-acc-%"},
	}
	_, test := l.Digits()
	for _, k := range []int{2, 4} {
		team, _, err := l.DigitsTeam(k)
		if err != nil {
			return nil, err
		}
		m.RowNames = append(m.RowNames, fmt.Sprintf("K=%d", k))
		m.Values = append(m.Values, []float64{
			100 * team.Accuracy(test.X, test.Y),
			100 * team.VoteAccuracy(test.X, test.Y),
		})
	}
	return m, nil
}

// AblationEarlyExit sweeps an adaptive-inference entropy threshold, priced
// offline over the local expert: low thresholds always broadcast (the
// paper's protocol), high thresholds answer locally. No runtime applies the
// threshold yet (ROADMAP item 9). For each threshold it reports the
// escalation rate, the modeled mean latency on the Jetson-CPU profile, and
// the resulting accuracy.
func (l *Lab) AblationEarlyExit() (*Matrix, error) {
	team, _, err := l.DigitsTeam(2)
	if err != nil {
		return nil, err
	}
	_, test := l.Digits()
	local := team.Experts[0]
	localProbs, ent := local.PredictWithEntropy(test.X)
	teamProbs, _ := team.Predict(test.X)

	dev := edgesim.JetsonTX2CPU()
	link := edgesim.WiFi()
	expertPaper, err := l.PaperNet("MLP-4")
	if err != nil {
		return nil, err
	}
	localMs := BaselineCost(dev, expertPaper, 784, false).Ms()
	teamMs := teamNetRun(expertPaper, 2, 784, 10).cost(dev, link, edgesim.Socket(), false).Ms()

	m := &Matrix{
		ID:       "ablation-early-exit",
		Title:    "adaptive early exit: entropy threshold vs escalation, latency, accuracy (K=2, digits)",
		ColNames: []string{"escalation-%", "mean-latency-ms", "accuracy-%"},
	}
	maxH := math.Log(10)
	for _, frac := range []float64{0, 0.1, 0.25, 0.5, 1.0} {
		threshold := frac * maxH
		correct, escalated := 0, 0
		for i := range test.Y {
			var row []float64
			if ent.Data[i] > threshold {
				escalated++
				row = teamProbs.RowSlice(i)
			} else {
				row = localProbs.RowSlice(i)
			}
			best, bi := row[0], 0
			for c, v := range row[1:] {
				if v > best {
					best, bi = v, c+1
				}
			}
			if bi == test.Y[i] {
				correct++
			}
		}
		rate := float64(escalated) / float64(len(test.Y))
		m.RowNames = append(m.RowNames, fmt.Sprintf("H>%.2f", threshold))
		m.Values = append(m.Values, []float64{
			100 * rate,
			rate*teamMs + (1-rate)*localMs,
			100 * float64(correct) / float64(len(test.Y)),
		})
	}
	return m, nil
}

// AblationStaticGate removes the dynamic gate, training with the raw
// arg-min assignment — the "richer gets richer" regime of Section IV — and
// reports balance and starvation against the full system.
func (l *Lab) AblationStaticGate() (*Matrix, error) {
	m := &Matrix{
		ID:       "ablation-static-gate",
		Title:    "dynamic gate Ḡ vs static arg-min gate G (K=2, digits)",
		ColNames: []string{"final-imbalance", "starved-iters", "accuracy-%"},
	}
	_, test := l.Digits()
	for _, static := range []bool{false, true} {
		cfg, train := l.ablationConfig(2)
		cfg.StaticGate = static
		tr, err := core.NewTrainer(cfg)
		if err != nil {
			return nil, err
		}
		team, hist := tr.Train(train)
		starved := 0
		for _, s := range hist.Stats {
			for _, p := range s.Proportions {
				if p < 0.05 {
					starved++
					break
				}
			}
		}
		name := "dynamic"
		if static {
			name = "static"
		}
		m.RowNames = append(m.RowNames, name)
		m.Values = append(m.Values, []float64{
			finalDeviation(hist),
			float64(starved),
			100 * team.Accuracy(test.X, test.Y),
		})
	}
	return m, nil
}
