package bench

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/edgesim"
)

// Digit-recognition experiments (paper Section VI-C): Figure 5, Tables I(a)
// and I(b), Figure 6.

// Fig5 regenerates Figure 5: handwritten-digit recognition on a Raspberry
// Pi 3B+ — baseline MLP-8 vs TeamNet with two (2×MLP-4) and four (4×MLP-2)
// experts; accuracy, inference time, memory and CPU usage.
func (l *Lab) Fig5() (*Table, error) {
	t := &Table{ID: "fig5", Title: "Digits on Raspberry Pi 3B+ (baseline vs TeamNet experts)"}
	return l.systemsTable(t, l.digitsWorkload(), edgesim.RaspberryPi3B(), false)
}

// Table1 regenerates Table I: digits on Jetson TX2, CPU-only (a) or
// GPU+CPU (b) — baseline vs TeamNet, MPI-Matrix, SG-MoE-G and SG-MoE-M at
// two and four nodes.
func (l *Lab) Table1(gpu bool) (*Table, error) {
	t := &Table{ID: "table1a", Title: "Digits on Jetson TX2 (CPU only)", GPU: gpu}
	if gpu {
		t.ID, t.Title = "table1b", "Digits on Jetson TX2 (GPU and CPU)"
	}
	return l.systemsTable(t, l.digitsWorkload(), jetson(gpu), true)
}

// Fig6 regenerates Figure 6: the proportion of data assigned to each expert
// per training iteration for K experts on digits, converging to the set
// point 1/K.
func (l *Lab) Fig6(k int) (*Series, error) {
	_, hist, err := l.DigitsTeam(k)
	if err != nil {
		return nil, err
	}
	return convergenceSeries("fig6", "digit recognition", k, hist), nil
}

// convergenceSeries renders a training history as the paper's
// proportion-vs-iteration curves (lightly smoothed, like the figures). The
// id is suffixed a/b for K=2/K=4 as in the paper.
func convergenceSeries(idPrefix, task string, k int, hist *core.History) *Series {
	suffix := "a"
	if k == 4 {
		suffix = "b"
	}
	s := &Series{
		ID:     idPrefix + suffix,
		Title:  fmt.Sprintf("data share per expert vs iteration, K=%d, %s (set point %.2f)", k, task, 1/float64(k)),
		XLabel: "iteration",
	}
	const window = 9
	n := len(hist.Stats)
	for e := 0; e < k; e++ {
		s.Labels = append(s.Labels, fmt.Sprintf("expert%d", e+1))
		s.Y = append(s.Y, make([]float64, 0, n))
	}
	for i, st := range hist.Stats {
		s.X = append(s.X, float64(st.Iteration))
		lo := i - window/2
		hi := i + window/2
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		for e := 0; e < k; e++ {
			sum := 0.0
			for j := lo; j <= hi; j++ {
				sum += hist.Stats[j].Proportions[e]
			}
			s.Y[e] = append(s.Y[e], sum/float64(hi-lo+1))
		}
	}
	return s
}
