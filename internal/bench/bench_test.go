package bench

import (
	"math"
	"strings"
	"testing"

	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/mpi"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "t", Title: "demo", GPU: true, Rows: []Row{
		{System: "Baseline", Nodes: 1, AccuracyPct: 97.5, InferenceMs: 3.4, MemoryPct: 8.2, CPUPct: 55.3, GPUPct: 5},
		{System: "TeamNet", Nodes: 2, AccuracyPct: 98.7, InferenceMs: 3.2, MemoryPct: 6.0, CPUPct: 30.7, GPUPct: 3.8},
	}}
	s := tbl.String()
	for _, want := range []string{"Accuracy", "Inference Time", "Memory", "CPU", "GPU", "TeamNet(x2)", "Baseline"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table rendering missing %q:\n%s", want, s)
		}
	}
}

func TestFormatCellNaN(t *testing.T) {
	if formatCell(math.NaN()) != "-" {
		t.Fatal("NaN cell should render as dash")
	}
}

func TestSeriesRendering(t *testing.T) {
	s := &Series{ID: "f", Title: "demo", XLabel: "iter",
		Labels: []string{"a", "b"}, X: []float64{0, 1},
		Y: [][]float64{{0.5, 0.6}, {0.5, 0.4}}}
	out := s.String()
	if !strings.Contains(out, "iter") || !strings.Contains(out, "0.6000") {
		t.Fatalf("series rendering wrong:\n%s", out)
	}
}

func TestMatrixRendering(t *testing.T) {
	m := &Matrix{ID: "m", Title: "demo", RowNames: []string{"e1"},
		ColNames: []string{"c1", "c2"}, Values: [][]float64{{0.25, 0.75}}}
	out := m.String()
	if !strings.Contains(out, "e1") || !strings.Contains(out, "0.75") {
		t.Fatalf("matrix rendering wrong:\n%s", out)
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every artifact of the paper's evaluation must be present.
	want := []string{
		"fig5", "table1a", "table1b", "fig6a", "fig6b",
		"fig7a", "fig7b", "table2a", "table2b", "fig8a", "fig8b",
		"fig9a", "fig9b",
	}
	ids := IDs()
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("registry missing paper artifact %s", id)
		}
	}
	for _, id := range want {
		if Describe(id) == "" {
			t.Fatalf("missing description for %s", id)
		}
	}
	if Describe("nope") != "" {
		t.Fatal("unknown id has a description")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	l := NewLab(DefaultOptions())
	if _, err := Run(l, "not-an-experiment"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// Cost-model shape tests: the orderings the paper's conclusions rest on
// must hold for the paper-size architectures, independent of training.

func latencyLab(t *testing.T) *Lab {
	t.Helper()
	return NewLab(DefaultOptions())
}

func TestCostTeamNetBeatsBaselineOnCPU(t *testing.T) {
	l := latencyLab(t)
	dev, link := edgesim.JetsonTX2CPU(), edgesim.WiFi()
	base, err := l.PaperNet("MLP-8")
	if err != nil {
		t.Fatal(err)
	}
	mlp4, err := l.PaperNet("MLP-4")
	if err != nil {
		t.Fatal(err)
	}
	baseMs := BaselineCost(dev, base, 784, false).Ms()
	teamMs := teamNetRun(mlp4, 2, 784, 10).cost(dev, link, edgesim.Socket(), false).Ms()
	if teamMs >= baseMs {
		t.Fatalf("TeamNet (%.2f ms) not faster than baseline (%.2f ms) on CPU", teamMs, baseMs)
	}
}

func TestCostBaselineBeatsTeamNetOnGPUDigits(t *testing.T) {
	// Table I(b)'s headline: the fixed WiFi cost overwhelms tiny GPU models.
	l := latencyLab(t)
	dev, link := edgesim.JetsonTX2GPU(), edgesim.WiFi()
	base, err := l.PaperNet("MLP-8")
	if err != nil {
		t.Fatal(err)
	}
	mlp4, err := l.PaperNet("MLP-4")
	if err != nil {
		t.Fatal(err)
	}
	baseMs := BaselineCost(dev, base, 784, true).Ms()
	teamMs := teamNetRun(mlp4, 2, 784, 10).cost(dev, link, edgesim.Socket(), true).Ms()
	if baseMs >= teamMs {
		t.Fatalf("GPU baseline (%.2f ms) should beat TeamNet (%.2f ms) for digits", baseMs, teamMs)
	}
}

func TestCostMPIFarSlowerThanTeamNet(t *testing.T) {
	// Table I's 30×+ gap: per-layer MPI collectives vs two socket messages.
	l := latencyLab(t)
	dev, link := edgesim.JetsonTX2CPU(), edgesim.WiFi()
	base, err := l.PaperNet("MLP-8")
	if err != nil {
		t.Fatal(err)
	}
	mlp4, err := l.PaperNet("MLP-4")
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := recordMPI(mpi.MatrixInference, "MLP-8", 2, 784)
	if err != nil {
		t.Fatal(err)
	}
	mpiMs := matrix.cost(dev, link, edgesim.MPI(), false).Ms()
	teamMs := teamNetRun(mlp4, 2, 784, 10).cost(dev, link, edgesim.Socket(), false).Ms()
	if mpiMs < 10*teamMs {
		t.Fatalf("MPI-Matrix (%.1f ms) not ≫ TeamNet (%.1f ms)", mpiMs, teamMs)
	}
	// And slower than just running the baseline locally, as the paper notes.
	baseMs := BaselineCost(dev, base, 784, false).Ms()
	if mpiMs < baseMs {
		t.Fatal("MPI-Matrix should be slower than the local baseline")
	}
}

func TestCostSGMoESlowerThanTeamNetDigits(t *testing.T) {
	l := latencyLab(t)
	dev, link := edgesim.JetsonTX2CPU(), edgesim.WiFi()
	mlp4, err := l.PaperNet("MLP-4")
	if err != nil {
		t.Fatal(err)
	}
	sgMoE, err := recordSGMoE("MLP-4", 2, 2, 784, 10)
	if err != nil {
		t.Fatal(err)
	}
	teamMs := teamNetRun(mlp4, 2, 784, 10).cost(dev, link, edgesim.Socket(), false).Ms()
	grpcMs := sgMoE.cost(dev, link, edgesim.GRPC(), false).Ms()
	mpiMs := sgMoE.cost(dev, link, edgesim.MPI(), false).Ms()
	if grpcMs <= teamMs {
		t.Fatalf("SG-MoE-G (%.2f ms) should trail TeamNet (%.2f ms): gate hop + RPC", grpcMs, teamMs)
	}
	if mpiMs <= grpcMs {
		t.Fatalf("SG-MoE-M (%.2f ms) should trail SG-MoE-G (%.2f ms) on digits", mpiMs, grpcMs)
	}
	// Every SG-MoE-G cell of the committed tables was priced with 36 envelope
	// bytes per call; the constant must keep evaluating to that.
	if grpcEnvelopeBytes != 36 {
		t.Fatalf("gRPC envelope %d bytes, the paper tables were priced with 36", grpcEnvelopeBytes)
	}
}

func TestCostKernelWorseThanBranch(t *testing.T) {
	// Table II: MPI-Kernel communicates per convolution, MPI-Branch per
	// block — kernel must be slower at 2 nodes.
	dev, link := edgesim.JetsonTX2CPU(), edgesim.WiFi()
	kernelRun, err := recordMPI(mpi.KernelInference, "SS-26", 2, 3*32*32)
	if err != nil {
		t.Fatal(err)
	}
	branchRun, err := recordMPI(mpi.BranchInference, "SS-26", 2, 3*32*32)
	if err != nil {
		t.Fatal(err)
	}
	kernel := kernelRun.cost(dev, link, edgesim.MPI(), false).Ms()
	branch := branchRun.cost(dev, link, edgesim.MPI(), false).Ms()
	if kernel <= branch {
		t.Fatalf("MPI-Kernel (%.0f ms) should be slower than MPI-Branch (%.0f ms)", kernel, branch)
	}
}

func TestCostTeamNetHalvesCNNBaseline(t *testing.T) {
	// Fig 7(a): ~"nearly halves the inference time on Jetson CPUs".
	l := latencyLab(t)
	dev, link := edgesim.JetsonTX2CPU(), edgesim.WiFi()
	ss26, err := l.PaperNet("SS-26")
	if err != nil {
		t.Fatal(err)
	}
	ss14, err := l.PaperNet("SS-14")
	if err != nil {
		t.Fatal(err)
	}
	baseMs := BaselineCost(dev, ss26, 3*32*32, false).Ms()
	teamMs := teamNetRun(ss14, 2, 3*32*32, 10).cost(dev, link, edgesim.Socket(), false).Ms()
	ratio := teamMs / baseMs
	if ratio > 0.75 || ratio < 0.2 {
		t.Fatalf("2xSS-14 / SS-26 latency ratio %.2f outside the paper's halving regime", ratio)
	}
}

func TestCostGPUCNNTwoExpertsFastest(t *testing.T) {
	// Fig 7(b): on the GPU, 2xSS-14 is the fastest TeamNet configuration —
	// 4xSS-8 saves less compute than the extra broadcast costs.
	l := latencyLab(t)
	dev, link := edgesim.JetsonTX2GPU(), edgesim.WiFi()
	ss14, err := l.PaperNet("SS-14")
	if err != nil {
		t.Fatal(err)
	}
	ss8, err := l.PaperNet("SS-8")
	if err != nil {
		t.Fatal(err)
	}
	t2 := teamNetRun(ss14, 2, 3*32*32, 10).cost(dev, link, edgesim.Socket(), true).Ms()
	t4 := teamNetRun(ss8, 4, 3*32*32, 10).cost(dev, link, edgesim.Socket(), true).Ms()
	if t2 >= t4 {
		t.Fatalf("GPU: 2xSS-14 (%.2f ms) should beat 4xSS-8 (%.2f ms)", t2, t4)
	}
}

func TestPaperNetUnknown(t *testing.T) {
	l := latencyLab(t)
	if _, err := l.PaperNet("MLP-99"); err == nil {
		t.Fatal("unknown paper net accepted")
	}
}

func TestPaperNetMemoized(t *testing.T) {
	l := latencyLab(t)
	a, err := l.PaperNet("MLP-2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.PaperNet("MLP-2")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("PaperNet not memoized")
	}
}

func TestConvergenceSeriesSmoothing(t *testing.T) {
	// Build a fake history through the public trainer on a tiny run.
	l := NewLab(Options{Scale: Quick, Seed: 7})
	_, hist, err := l.DigitsTeam(2)
	if err != nil {
		t.Fatal(err)
	}
	s := convergenceSeries("fig6", "digits", 2, hist)
	if s.ID != "fig6a" || len(s.Labels) != 2 {
		t.Fatalf("series meta wrong: %s %v", s.ID, s.Labels)
	}
	if len(s.X) != len(hist.Stats) {
		t.Fatal("series length mismatch")
	}
	// Proportions are probabilities: all curve values in [0, 1] and the
	// two curves sum to 1 at each point.
	for i := range s.X {
		sum := s.Y[0][i] + s.Y[1][i]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("point %d: proportions sum %v", i, sum)
		}
	}
}
