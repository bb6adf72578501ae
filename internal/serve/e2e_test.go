package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// TestGatewayOverRealMaster drives the gateway end to end: concurrent
// single-row predictions through a real cluster.Master and a real
// snapshot-serving worker over loopback TCP, checking every caller's answer is bit-identical
// to what a direct per-row Master.Infer returns — coalescing and scattering
// must be invisible to correctness.
func TestGatewayOverRealMaster(t *testing.T) {
	spec := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "e2e", Input: 16, Width: 32, Layers: 2, Classes: 5}}
	expert, err := spec.Build(tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	worker := cluster.NewWorker(expert, 1)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()

	local, err := spec.Build(tensor.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	master := cluster.NewMaster(local, 5)
	defer master.Close()
	master.SetTimeout(5 * time.Second)
	if err := master.Connect(addr); err != nil {
		t.Fatal(err)
	}

	gw := New(master, Config{MaxBatch: 8, Workers: 2})
	defer gw.Close()

	const n = 24
	rng := tensor.NewRNG(9)
	inputs := make([]*tensor.Tensor, n)
	wantProbs := make([]*tensor.Tensor, n)
	wantWinners := make([]int, n)
	for i := range inputs {
		inputs[i] = rng.Randn(1, 16)
		probs, winners, err := master.Infer(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		wantProbs[i] = probs
		wantWinners[i] = winners[0]
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = gw.Predict(context.Background(), inputs[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Winners[0] != wantWinners[i] {
			t.Errorf("request %d: winner %d via gateway, %d direct", i, results[i].Winners[0], wantWinners[i])
		}
		if !results[i].Probs.AllClose(wantProbs[i], 1e-9) {
			t.Errorf("request %d: gateway probs differ from direct inference", i)
		}
		wantEnt := 0.0
		for _, p := range wantProbs[i].RowSlice(0) {
			if p > 0 {
				wantEnt -= p * math.Log(p)
			}
		}
		if math.Abs(results[i].Entropy[0]-wantEnt) > 1e-6 {
			t.Errorf("request %d: entropy %v, want %v", i, results[i].Entropy[0], wantEnt)
		}
	}
	if rows := gw.Metrics().Counter("serve.batched_rows").Value(); rows != n {
		t.Fatalf("serve.batched_rows = %d, want %d", rows, n)
	}
}
