// Benchmarks: one testing.B entry per table and figure of the paper's
// evaluation (driving the internal/bench harness; DESIGN.md §3 maps each to
// its experiment id), the ablation benches of DESIGN.md §5, and live
// micro-benchmarks of the real inference and transport paths.
//
// The harness lab memoizes training, so the first benchmark that touches a
// model pays its training cost and subsequent iterations measure the
// experiment evaluation itself.
//
//	go test -bench=. -benchmem
package teamnet_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet"
	"github.com/teamnet/teamnet/internal/bench"
	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

var (
	labOnce sync.Once
	lab     *bench.Lab
)

func sharedLab() *bench.Lab {
	labOnce.Do(func() {
		lab = bench.NewLab(bench.DefaultOptions())
	})
	return lab
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(l, id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if res.String() == "" {
			b.Fatalf("%s: empty result", id)
		}
	}
}

// Paper artifacts (Section VI).

func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkTable1a(b *testing.B) { benchExperiment(b, "table1a") }
func BenchmarkTable1b(b *testing.B) { benchExperiment(b, "table1b") }
func BenchmarkFig6a(b *testing.B)   { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)   { benchExperiment(b, "fig6b") }
func BenchmarkFig7a(b *testing.B)   { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)   { benchExperiment(b, "fig7b") }
func BenchmarkTable2a(b *testing.B) { benchExperiment(b, "table2a") }
func BenchmarkTable2b(b *testing.B) { benchExperiment(b, "table2b") }
func BenchmarkFig8a(b *testing.B)   { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)   { benchExperiment(b, "fig8b") }
func BenchmarkFig9a(b *testing.B)   { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)   { benchExperiment(b, "fig9b") }

// Ablations (DESIGN.md §5).

func BenchmarkAblationGain(b *testing.B)          { benchExperiment(b, "ablation-gain") }
func BenchmarkAblationMetaEstimator(b *testing.B) { benchExperiment(b, "ablation-meta") }
func BenchmarkAblationCombiner(b *testing.B)      { benchExperiment(b, "ablation-combiner") }
func BenchmarkAblationStaticGate(b *testing.B)    { benchExperiment(b, "ablation-static-gate") }
func BenchmarkAblationEarlyExit(b *testing.B)     { benchExperiment(b, "ablation-early-exit") }

// BenchmarkLiveTeamNet runs the real loopback-TCP cluster validation.
func BenchmarkLiveTeamNet(b *testing.B) { benchExperiment(b, "live-teamnet") }

// Live micro-benchmarks of the real code paths the cost model prices.

func benchNet(b *testing.B, name string, batch int) {
	b.Helper()
	net, err := sharedLab().PaperNet(name)
	if err != nil {
		b.Fatal(err)
	}
	var features int
	switch name[0] {
	case 'M': // MLPs on 784-dim digits
		features = 784
	default: // Shake-Shake on 3×32×32 objects
		features = 3 * 32 * 32
	}
	x := tensor.NewRNG(1).Randn(batch, features)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

func BenchmarkForwardMLP8(b *testing.B)        { benchNet(b, "MLP-8", 1) }
func BenchmarkForwardMLP4(b *testing.B)        { benchNet(b, "MLP-4", 1) }
func BenchmarkForwardMLP2(b *testing.B)        { benchNet(b, "MLP-2", 1) }
func BenchmarkForwardSS26(b *testing.B)        { benchNet(b, "SS-26", 1) }
func BenchmarkForwardSS14(b *testing.B)        { benchNet(b, "SS-14", 1) }
func BenchmarkForwardSS8(b *testing.B)         { benchNet(b, "SS-8", 1) }
func BenchmarkForwardMLP8Batch32(b *testing.B) { benchNet(b, "MLP-8", 32) }

// BenchmarkTeamPredict measures in-process arg-min collaborative inference.
func BenchmarkTeamPredict(b *testing.B) {
	l := sharedLab()
	team, _, err := l.DigitsTeam(2)
	if err != nil {
		b.Fatal(err)
	}
	_, test := l.Digits()
	x := test.X.SelectRows([]int{0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.Predict(x)
	}
}

// BenchmarkClusterRoundTrip measures one live master→worker→master inference
// over loopback TCP (the real Figure 1(d) protocol).
func BenchmarkClusterRoundTrip(b *testing.B) {
	l := sharedLab()
	team, _, err := l.DigitsTeam(2)
	if err != nil {
		b.Fatal(err)
	}
	_, test := l.Digits()

	worker := cluster.NewWorker(team.Experts[1], 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer worker.Close()
	master := cluster.NewMaster(team.Experts[0], 10)
	if err := master.Connect(addr); err != nil {
		b.Fatal(err)
	}
	defer master.Close()

	x := test.X.SelectRows([]int{0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := master.Infer(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRoundTripChaosLatency measures the supervised round trip
// through the fault-injection proxy adding 1ms each way — the price of
// surviving a degraded link, retry machinery included.
func BenchmarkClusterRoundTripChaosLatency(b *testing.B) {
	l := sharedLab()
	team, _, err := l.DigitsTeam(2)
	if err != nil {
		b.Fatal(err)
	}
	_, test := l.Digits()

	worker := cluster.NewWorker(team.Experts[1], 1)
	workerAddr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer worker.Close()
	proxy := chaos.New(workerAddr, chaos.Fault{Mode: chaos.Latency, Delay: time.Millisecond})
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer proxy.Close()

	master := cluster.NewMaster(team.Experts[0], 10)
	master.SetTimeout(2 * time.Second)
	if err := master.Connect(proxyAddr); err != nil {
		b.Fatal(err)
	}
	defer master.Close()

	x := test.X.SelectRows([]int{0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.Do(context.Background(), cluster.Request{X: x, Policy: cluster.Policy{Gather: cluster.BestEffort}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTensorCodec measures the wire encode/decode cycle of an input.
func BenchmarkTensorCodec(b *testing.B) {
	x := tensor.NewRNG(2).Randn(1, 784)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := transport.EncodeTensor(x)
		if _, _, err := transport.DecodeTensor(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateFit measures one Algorithm 2 inner optimization on a
// realistic entropy matrix.
func BenchmarkGateFit(b *testing.B) {
	ds := dataset.Digits(dataset.DigitsConfig{N: 128, H: 14, W: 14, Seed: 3})
	spec, err := teamnet.DigitsExpert(2, ds.Features(), ds.Classes)
	if err != nil {
		b.Fatal(err)
	}
	trainer, err := teamnet.NewTrainer(teamnet.Config{
		K: 2, ExpertSpec: spec, Epochs: 1, BatchSize: 128, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainer.Train(ds) // one epoch = one gate fit + expert step
	}
}

// BenchmarkTrainingIteration measures one full competitive iteration
// (entropy matrix + gate + expert updates) at digit scale.
func BenchmarkTrainingIteration(b *testing.B) {
	ds := dataset.Digits(dataset.DigitsConfig{N: 50, H: 14, W: 14, Seed: 5})
	spec, err := teamnet.DigitsExpert(4, ds.Features(), ds.Classes)
	if err != nil {
		b.Fatal(err)
	}
	trainer, err := teamnet.NewTrainer(teamnet.Config{
		K: 4, ExpertSpec: spec, Epochs: 1, BatchSize: 50, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainer.Train(ds)
	}
}

// BenchmarkMatMul measures the blocked kernel at dense-layer scale.
func BenchmarkMatMul(b *testing.B) {
	rng := tensor.NewRNG(7)
	x := rng.Randn(32, 256)
	w := rng.Randn(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, w)
	}
}
