package bench

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/edgesim"
)

// Image-classification experiments (paper Section VI-D): Figure 7, Tables
// II(a) and II(b), Figures 8 and 9.

// Fig7 regenerates Figure 7: object classification with Shake-Shake CNNs on
// Jetson TX2, CPU-only (a) or GPU (b) — baseline SS-26 vs TeamNet 2×SS-14
// and 4×SS-8.
func (l *Lab) Fig7(gpu bool) (*Table, error) {
	dev := edgesim.JetsonTX2CPU()
	id, title := "fig7a", "Objects on Jetson TX2 CPU (baseline vs TeamNet experts)"
	if gpu {
		dev = edgesim.JetsonTX2GPU()
		id, title = "fig7b", "Objects on Jetson TX2 GPU (baseline vs TeamNet experts)"
	}
	link := edgesim.WiFi()
	t := &Table{ID: id, Title: title, GPU: gpu}

	baseline, err := l.ObjectsBaseline()
	if err != nil {
		return nil, err
	}
	_, test := l.Objects()
	ss26, err := l.PaperNet("SS-26")
	if err != nil {
		return nil, err
	}
	cost := BaselineCost(dev, ss26, 3*32*32, gpu)
	usage := cost.Usage(dev, gpu)
	t.Rows = append(t.Rows, Row{
		System: "Baseline", Nodes: 1,
		AccuracyPct: 100 * baseline.Accuracy(test.X, test.Y),
		InferenceMs: cost.Ms(), MemoryPct: usage.MemPct,
		CPUPct: usage.CPUPct, GPUPct: usage.GPUPct,
	})
	for _, k := range []int{2, 4} {
		team, _, err := l.ObjectsTeam(k)
		if err != nil {
			return nil, err
		}
		expertName := "SS-14"
		if k == 4 {
			expertName = "SS-8"
		}
		expert, err := l.PaperNet(expertName)
		if err != nil {
			return nil, err
		}
		c := TeamNetCost(dev, link, expert, k, 3*32*32, 10, gpu)
		u := c.Usage(dev, gpu)
		t.Rows = append(t.Rows, Row{
			System: "TeamNet", Nodes: k,
			AccuracyPct: 100 * team.Accuracy(test.X, test.Y),
			InferenceMs: c.Ms(), MemoryPct: u.MemPct,
			CPUPct: u.CPUPct, GPUPct: u.GPUPct,
		})
	}
	return t, nil
}

// Table2 regenerates Table II: objects on Jetson TX2, CPU-only (a) or
// GPU+CPU (b) — baseline vs TeamNet, MPI-Kernel (2 and 4 nodes), MPI-Branch
// (2 nodes only, as in the paper), SG-MoE-G and SG-MoE-M.
func (l *Lab) Table2(gpu bool) (*Table, error) {
	dev := edgesim.JetsonTX2CPU()
	id, title := "table2a", "Objects on Jetson TX2 (CPU only)"
	if gpu {
		dev = edgesim.JetsonTX2GPU()
		id, title = "table2b", "Objects on Jetson TX2 (GPU and CPU)"
	}
	link := edgesim.WiFi()
	t := &Table{ID: id, Title: title, GPU: gpu}

	baseline, err := l.ObjectsBaseline()
	if err != nil {
		return nil, err
	}
	_, test := l.Objects()
	baseAcc := 100 * baseline.Accuracy(test.X, test.Y)
	ss26, err := l.PaperNet("SS-26")
	if err != nil {
		return nil, err
	}
	features := 3 * 32 * 32

	cost := BaselineCost(dev, ss26, features, gpu)
	usage := cost.Usage(dev, gpu)
	t.Rows = append(t.Rows, Row{
		System: "Baseline", Nodes: 1, AccuracyPct: baseAcc,
		InferenceMs: cost.Ms(), MemoryPct: usage.MemPct,
		CPUPct: usage.CPUPct, GPUPct: usage.GPUPct,
	})

	gate, err := l.PaperNet("gate-cnn")
	if err != nil {
		return nil, err
	}
	for _, k := range []int{2, 4} {
		expertName := "SS-14"
		if k == 4 {
			expertName = "SS-8"
		}
		expert, err := l.PaperNet(expertName)
		if err != nil {
			return nil, err
		}

		team, _, err := l.ObjectsTeam(k)
		if err != nil {
			return nil, err
		}
		teamCost := TeamNetCost(dev, link, expert, k, features, 10, gpu)
		teamUsage := teamCost.Usage(dev, gpu)
		t.Rows = append(t.Rows, Row{
			System: "TeamNet", Nodes: k,
			AccuracyPct: 100 * team.Accuracy(test.X, test.Y),
			InferenceMs: teamCost.Ms(), MemoryPct: teamUsage.MemPct,
			CPUPct: teamUsage.CPUPct, GPUPct: teamUsage.GPUPct,
		})

		kernelCost := MPIKernelCost(dev, link, ss26, k, features, gpu)
		kernelUsage := kernelCost.Usage(dev, gpu)
		t.Rows = append(t.Rows, Row{
			System: "MPI-Kernel", Nodes: k, AccuracyPct: baseAcc,
			InferenceMs: kernelCost.Ms(), MemoryPct: kernelUsage.MemPct,
			CPUPct: kernelUsage.CPUPct, GPUPct: kernelUsage.GPUPct,
		})

		if k == 2 { // MPI-Branch is only defined for two nodes
			branchCost := MPIBranchCost(dev, link, ss26, features, gpu)
			branchUsage := branchCost.Usage(dev, gpu)
			t.Rows = append(t.Rows, Row{
				System: "MPI-Branch", Nodes: 2, AccuracyPct: baseAcc,
				InferenceMs: branchCost.Ms(), MemoryPct: branchUsage.MemPct,
				CPUPct: branchUsage.CPUPct, GPUPct: branchUsage.GPUPct,
			})
		}

		moeModel, err := l.ObjectsMoE(k)
		if err != nil {
			return nil, err
		}
		moeAcc := 100 * moeModel.Accuracy(test.X, test.Y)
		topK := moeModel.Cfg.TopK
		for _, tr := range []edgesim.Transport{edgesim.GRPC(), edgesim.MPI()} {
			name := "SG-MoE-G"
			if tr.BusyWait {
				name = "SG-MoE-M"
			}
			c := SGMoECost(dev, link, tr, gate, expert, topK, features, 10, gpu)
			u := c.Usage(dev, gpu)
			t.Rows = append(t.Rows, Row{
				System: name, Nodes: k, AccuracyPct: moeAcc,
				InferenceMs: c.Ms(), MemoryPct: u.MemPct,
				CPUPct: u.CPUPct, GPUPct: u.GPUPct,
			})
		}
	}
	return t, nil
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
