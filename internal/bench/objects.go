package bench

import "fmt"

// Image-classification experiments (paper Section VI-D): Figure 7, Tables
// II(a) and II(b), Figures 8 and 9.

// Fig7 regenerates Figure 7: object classification with Shake-Shake CNNs on
// Jetson TX2, CPU-only (a) or GPU (b) — baseline SS-26 vs TeamNet 2×SS-14
// and 4×SS-8.
func (l *Lab) Fig7(gpu bool) (*Table, error) {
	t := &Table{ID: "fig7a", Title: "Objects on Jetson TX2 CPU (baseline vs TeamNet experts)", GPU: gpu}
	if gpu {
		t.ID, t.Title = "fig7b", "Objects on Jetson TX2 GPU (baseline vs TeamNet experts)"
	}
	return l.systemsTable(t, l.objectsWorkload(), jetson(gpu), false)
}

// Table2 regenerates Table II: objects on Jetson TX2, CPU-only (a) or
// GPU+CPU (b) — baseline vs TeamNet, MPI-Kernel (2 and 4 nodes), MPI-Branch
// (2 nodes only, as in the paper), SG-MoE-G and SG-MoE-M.
func (l *Lab) Table2(gpu bool) (*Table, error) {
	t := &Table{ID: "table2a", Title: "Objects on Jetson TX2 (CPU only)", GPU: gpu}
	if gpu {
		t.ID, t.Title = "table2b", "Objects on Jetson TX2 (GPU and CPU)"
	}
	return l.systemsTable(t, l.objectsWorkload(), jetson(gpu), true)
}

// Fig8 regenerates Figure 8: convergence of per-expert data shares on the
// object-classification task.
func (l *Lab) Fig8(k int) (*Series, error) {
	_, hist, err := l.ObjectsTeam(k)
	if err != nil {
		return nil, err
	}
	return convergenceSeries("fig8", "image classification", k, hist), nil
}

// Fig9 regenerates Figure 9: the specialization matrix — for every class,
// the share of test samples each expert wins by least entropy. With the
// machine/animal super-categories of the synthetic object set, experts
// specialize along the category axis as the paper observes.
func (l *Lab) Fig9(k int) (*Matrix, error) {
	team, _, err := l.ObjectsTeam(k)
	if err != nil {
		return nil, err
	}
	_, test := l.Objects()
	sm := team.SpecializationMatrix(test)
	suffix := "a"
	if k == 4 {
		suffix = "b"
	}
	m := &Matrix{
		ID:       "fig9" + suffix,
		Title:    fmt.Sprintf("share of each class won per expert, K=%d", k),
		ColNames: test.ClassNames,
	}
	for e := 0; e < k; e++ {
		m.RowNames = append(m.RowNames, fmt.Sprintf("expert%d", e+1))
		m.Values = append(m.Values, append([]float64(nil), sm.RowSlice(e)...))
	}
	return m, nil
}
