package bench

import (
	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/moe"
	"github.com/teamnet/teamnet/internal/mpi"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// workload is one of the paper's two tasks as its system tables see it: the
// trained systems whose accuracy a column reports, and the paper-size
// architectures its latency prices.
type workload struct {
	features int
	base     string         // paper-size baseline
	experts  map[int]string // paper-size expert at K = 2 and 4
	test     *dataset.Dataset
	baseline func() (*nn.Network, error)
	team     func(k int) (*core.Team, *core.History, error)
	sgMoE    func(k int) (*moe.SGMoE, error)
	schemes  []scheme
}

// scheme is one MPI baseline column: an internal/mpi runtime distributing
// the paper-size baseline over up to maxNodes ranks.
type scheme struct {
	name     string
	run      func(*mpi.Comm, *nn.Network, *tensor.Tensor) (*tensor.Tensor, error)
	maxNodes int
}

func (l *Lab) digitsWorkload() workload {
	_, test := l.Digits()
	return workload{
		features: 784, base: "MLP-8", experts: map[int]string{2: "MLP-4", 4: "MLP-2"}, test: test,
		baseline: l.DigitsBaseline, team: l.DigitsTeam, sgMoE: l.DigitsMoE,
		schemes: []scheme{{"MPI-Matrix", mpi.MatrixInference, 4}},
	}
}

func (l *Lab) objectsWorkload() workload {
	_, test := l.Objects()
	return workload{
		features: 3 * 32 * 32, base: "SS-26", experts: map[int]string{2: "SS-14", 4: "SS-8"}, test: test,
		baseline: l.ObjectsBaseline, team: l.ObjectsTeam, sgMoE: l.ObjectsMoE,
		schemes: []scheme{{"MPI-Kernel", mpi.KernelInference, 4}, {"MPI-Branch", mpi.BranchInference, 2}},
	}
}

// jetson is the Jetson TX2 profile of Tables I and II and Figure 7.
func jetson(gpu bool) edgesim.Device {
	if gpu {
		return edgesim.JetsonTX2GPU()
	}
	return edgesim.JetsonTX2CPU()
}

// systemsTable fills t with the baseline and, at two and four nodes, TeamNet
// priced on dev over WiFi. With baselines, each K also gets the workload's
// MPI schemes — they distribute the baseline model itself, so their accuracy
// is the baseline's by construction (verified in internal/mpi's tests) —
// and SG-MoE-G and SG-MoE-M: one recorded run priced under gRPC and MPI.
func (l *Lab) systemsTable(t *Table, w workload, dev edgesim.Device, baselines bool) (*Table, error) {
	link, gpu := edgesim.WiFi(), t.GPU
	baseline, err := w.baseline()
	if err != nil {
		return nil, err
	}
	baseAcc := 100 * baseline.Accuracy(w.test.X, w.test.Y)
	base, err := l.PaperNet(w.base)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, costRow("Baseline", 1, baseAcc, BaselineCost(dev, base, w.features, gpu), dev, gpu))
	for _, k := range []int{2, 4} {
		team, _, err := w.team(k)
		if err != nil {
			return nil, err
		}
		expert, err := l.PaperNet(w.experts[k])
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, costRow("TeamNet", k, 100*team.Accuracy(w.test.X, w.test.Y),
			teamNetRun(expert, k, w.features, 10).cost(dev, link, edgesim.Socket(), gpu), dev, gpu))
		if !baselines {
			continue
		}
		for _, s := range w.schemes {
			if k > s.maxNodes {
				continue
			}
			r, err := recordMPI(s.run, w.base, k, w.features)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, costRow(s.name, k, baseAcc, r.cost(dev, link, edgesim.MPI(), gpu), dev, gpu))
		}
		m, err := w.sgMoE(k)
		if err != nil {
			return nil, err
		}
		r, err := recordSGMoE(w.experts[k], k, m.Cfg.TopK, w.features, 10)
		if err != nil {
			return nil, err
		}
		acc := 100 * m.Accuracy(w.test.X, w.test.Y)
		t.Rows = append(t.Rows,
			costRow("SG-MoE-G", k, acc, r.cost(dev, link, edgesim.GRPC(), gpu), dev, gpu),
			costRow("SG-MoE-M", k, acc, r.cost(dev, link, edgesim.MPI(), gpu), dev, gpu))
	}
	return t, nil
}

// costRow is one table column: a system's accuracy, and the latency and
// usage of its cost on dev.
func costRow(system string, nodes int, accuracyPct float64, c Cost, dev edgesim.Device, gpu bool) Row {
	u := edgesim.EstimateUsage(dev, edgesim.UsageInputs{
		ModelBytes:      c.ModelBytes,
		ActivationBytes: c.ActBytes,
		ComputeSec:      c.ComputeSec,
		CommSec:         c.CommSec,
		GPU:             gpu,
		BusyComm:        c.BusyComm,
	})
	return Row{
		System: system, Nodes: nodes, AccuracyPct: accuracyPct,
		InferenceMs: c.Ms(), MemoryPct: u.MemPct, CPUPct: u.CPUPct, GPUPct: u.GPUPct,
	}
}
