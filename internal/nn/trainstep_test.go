package nn

import (
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// BenchmarkTrainStepSS14 times one training step of the objects_single
// expert — SS-14 on 3×32×32, 32 rows — and reports its forward and its
// backward separately, as milliseconds per row and as a share of the
// machine's widest no-FMA peak (tensor.PeakGFLOPS), counting the forward as
// NetworkFLOPs per row and the backward as twice that (the input and the
// weight gradients). Run it at -cpu 1 (docs/BENCHMARKS.md).
func BenchmarkTrainStepSS14(b *testing.B) {
	const rows = 32
	net := ss14Objects(b)
	rng := tensor.NewRNG(54)
	x := rng.Randn(rows, inputWidth(net))
	y := make([]int, rows)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	peak := max(tensor.PeakGFLOPS(4), tensor.PeakGFLOPS(8))
	var fwd, bwd time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		start := time.Now()
		logits := net.Forward(x, true)
		mid := time.Now()
		_, _, dLogits := SoftmaxCrossEntropy(logits, y)
		net.Backward(dLogits)
		fwd, bwd = fwd+mid.Sub(start), bwd+time.Since(mid)
	}
	flops := NetworkFLOPs(net) * rows * float64(b.N)
	for _, part := range []struct {
		name  string
		spent time.Duration
		flops float64
	}{{"fwd", fwd, flops}, {"bwd", bwd, 2 * flops}} {
		b.ReportMetric(part.spent.Seconds()*1e3/float64(rows*b.N), part.name+"-ms/row")
		if peak > 0 {
			b.ReportMetric(100*part.flops/part.spent.Seconds()/1e9/peak, part.name+"-%peak")
		}
	}
}
