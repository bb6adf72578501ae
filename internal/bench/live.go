package bench

import (
	"fmt"
	"time"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// LiveValidation cross-checks the cost model against reality: it serves a
// trained digit team over real loopback TCP, measures end-to-end inference
// latency, and reports it next to the model's prediction for a
// local-machine device profile on the loopback link. The two will not match
// to the microsecond — the local host is not a Jetson — but they must land
// in the same regime, which is the evidence that the simulated tables rest
// on a sane model.
func (l *Lab) LiveValidation() (*Matrix, error) {
	team, _, err := l.DigitsTeam(2)
	if err != nil {
		return nil, err
	}
	_, test := l.Digits()

	// Serve expert 1 over TCP; this process holds expert 0.
	worker := cluster.NewWorker(team.Experts[1], 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer worker.Close() //nolint:errcheck // shutdown path

	master := cluster.NewMaster(team.Experts[0], 10)
	defer master.Close() //nolint:errcheck // shutdown path
	master.SetTimeout(10 * time.Second)
	if err := master.Connect(addr); err != nil {
		return nil, err
	}

	const queries = 300
	var lat metrics.Summary
	correct := 0
	for i := 0; i < queries; i++ {
		row := i % test.Len()
		x := test.X.SelectRows([]int{row})
		start := time.Now()
		probs, _, err := master.Infer(x)
		if err != nil {
			return nil, fmt.Errorf("bench: live query %d: %w", i, err)
		}
		lat.Observe(time.Since(start))
		if probs.Row(0).ArgMax() == test.Y[row] {
			correct++
		}
	}

	// Model prediction for the same workload: this host's measured expert
	// compute plus the loopback link priced on real byte counts.
	expert := team.Experts[0]
	hostFlops := measureHostThroughput(expert, test.Features())
	host := edgesim.Device{Name: "local-host", CPUFlops: hostFlops, MemBytes: 1 << 33, BaseMemFrac: 0, BaseCPUFrac: 0}
	modeled := teamNetRun(expert, 2, test.Features(), 10).cost(host, edgesim.Loopback(), edgesim.Socket(), false)

	measuredMs := float64(lat.Mean()) / float64(time.Millisecond)
	m := &Matrix{
		ID:       "live-teamnet",
		Title:    "live loopback TCP vs cost model (K=2 digits, per-query ms)",
		RowNames: []string{"measured", "modeled"},
		ColNames: []string{"mean-ms", "p95-ms", "accuracy-%"},
		Values: [][]float64{
			{measuredMs, float64(lat.Percentile(95)) / float64(time.Millisecond), 100 * float64(correct) / queries},
			{modeled.Ms(), modeled.Ms(), 100 * team.Accuracy(test.X, test.Y)},
		},
	}
	return m, nil
}

// measureHostThroughput times one real forward pass to calibrate this
// host's effective FLOP/s on the expert architecture.
func measureHostThroughput(net *nn.Network, features int) float64 {
	x := tensor.New(1, features)
	// Warm up allocator and caches.
	net.Forward(x, false)
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		net.Forward(x, false)
	}
	elapsed := time.Since(start).Seconds() / reps
	if elapsed <= 0 {
		elapsed = 1e-6
	}
	return nn.NetworkFLOPs(net) / elapsed
}
