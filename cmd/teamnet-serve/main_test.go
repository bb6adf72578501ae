package main

import (
	"context"
	"testing"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// TestCutoverSwapsWeightsOnASingleNode drives the cutover -swap-watch calls
// on the setup its flag help names: a master with a local expert, a
// co-located gateway, and no fabric endpoint. The served answer for a fixed
// input must become the new weights' answer, and the gateway's label must
// move with it.
func TestCutoverSwapsWeightsOnASingleNode(t *testing.T) {
	spec := nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "m", Input: 4, Width: 4, Layers: 2, Classes: 3}}
	compile := func(s nn.Spec, seed int64) *nn.Snapshot {
		net, err := s.Build(tensor.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return nn.MustSnapshot(net)
	}
	snapA, snapB := compile(spec, 1), compile(spec, 2)

	master := cluster.NewMaster(nil, 3)
	defer master.Close()
	if err := master.SetLocal(cluster.Model{Snapshot: snapA, Version: "aaaa/e0"}); err != nil {
		t.Fatal(err)
	}
	gw := serve.New(master, serve.Config{MaxBatch: 4, QueueSize: 8, Workers: 1, CacheSize: 16})
	defer gw.Close()
	gw.SetModelVersion("aaaa")
	cutover := newCutover(master, gw)

	x := tensor.NewRNG(3).Randn(1, 4)
	serves := func(snap *nn.Snapshot, when string) {
		t.Helper()
		res, err := gw.Predict(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if want := snap.Predict(x); !res.Probs.AllClose(want, 0) {
			t.Fatalf("%s the gateway answers %v, the weights it should serve give %v", when, res.Probs.Data, want.Data)
		}
	}
	serves(snapA, "before the cutover")

	if err := cutover(cluster.Model{Snapshot: snapB, Version: "bbbb/e0"}); err != nil {
		t.Fatal(err)
	}
	if got := gw.ModelVersion(); got != "bbbb" {
		t.Fatalf("gateway label %q after the cutover, want the new bundle's label bbbb", got)
	}
	if got := master.Local().Version; got != "bbbb/e0" {
		t.Fatalf("master pins %q after the cutover, want bbbb/e0", got)
	}
	serves(snapB, "after the cutover")

	// A bundle of another geometry is refused whole: weights, pin and cache
	// key all stay.
	spec.MLP.Classes = 5
	if err := cutover(cluster.Model{Snapshot: compile(spec, 4), Version: "cccc/e0"}); err == nil {
		t.Fatal("5-class model accepted by a 3-class master")
	}
	if got := gw.ModelVersion(); got != "bbbb" {
		t.Fatalf("refused cutover moved the gateway label to %q", got)
	}
	serves(snapB, "after a refused cutover")
}
