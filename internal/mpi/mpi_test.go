package mpi

import (
	"sync"
	"testing"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// runWorld executes fn concurrently on every rank and returns the per-rank
// results, failing the test on any error.
func runWorld(t *testing.T, comms []*Comm, fn func(c *Comm) (*tensor.Tensor, error)) []*tensor.Tensor {
	t.Helper()
	out := make([]*tensor.Tensor, len(comms))
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			out[i], errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out
}

func TestBlockRangeCoversAll(t *testing.T) {
	for _, n := range []int{1, 5, 7, 64} {
		for _, size := range []int{1, 2, 3, 4, 9} {
			covered := 0
			prevHi := 0
			for r := 0; r < size; r++ {
				lo, hi := blockRange(n, size, r)
				if lo != prevHi {
					t.Fatalf("n=%d size=%d rank=%d: gap at %d..%d", n, size, r, prevHi, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d size=%d: covered %d", n, size, covered)
			}
		}
	}
}

func TestSendRecv(t *testing.T) {
	comms := NewLocalWorld(2)
	defer closeWorld(comms)
	rng := tensor.NewRNG(1)
	want := rng.Randn(3, 4)
	runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
		if c.Rank() == 0 {
			return nil, c.Send(1, want)
		}
		got, err := c.Recv(0)
		if err != nil {
			return nil, err
		}
		if !got.AllClose(want, 1e-5) {
			t.Error("send/recv corrupted tensor")
		}
		return got, nil
	})
	// Each side logs the one frame, with its peer and wire size.
	bytes := transport.FrameWireSize(transport.TensorWireSize(want))
	if log := comms[0].Log(); len(log) != 1 || log[0] != (Event{Op: OpSend, Peer: 1, Bytes: bytes}) {
		t.Fatalf("rank 0 log %+v", log)
	}
	if log := comms[1].Log(); len(log) != 1 || log[0] != (Event{Op: OpRecv, Peer: 0, Bytes: bytes}) {
		t.Fatalf("rank 1 log %+v", log)
	}
}

func TestSendToSelfRejected(t *testing.T) {
	comms := NewLocalWorld(2)
	defer closeWorld(comms)
	if err := comms[0].Send(0, tensor.New(1)); err == nil {
		t.Fatal("self-send accepted")
	}
	if _, err := comms[0].Recv(0); err == nil {
		t.Fatal("self-recv accepted")
	}
}

func TestBcast(t *testing.T) {
	comms := NewLocalWorld(4)
	defer closeWorld(comms)
	want := tensor.FromSlice([]float64{1, 2, 3}, 3)
	got := runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
		if c.Rank() == 1 {
			return c.Bcast(1, want)
		}
		return c.Bcast(1, nil)
	})
	for r, g := range got {
		if !g.AllClose(want, 1e-5) {
			t.Fatalf("rank %d bcast result wrong", r)
		}
	}
}

func TestGather(t *testing.T) {
	comms := NewLocalWorld(3)
	defer closeWorld(comms)
	// Rank r contributes [r].
	runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
		mine := tensor.FromSlice([]float64{float64(c.Rank())}, 1)
		parts, err := c.Gather(0, mine)
		if err != nil {
			return nil, err
		}
		if c.Rank() == 0 {
			for r, p := range parts {
				if p.Data[0] != float64(r) {
					t.Errorf("gather slot %d = %v", r, p.Data[0])
				}
			}
			return tensor.New(1), nil
		}
		if parts != nil {
			t.Error("non-root got gather results")
		}
		return tensor.New(1), nil
	})
}

func TestAllgather(t *testing.T) {
	comms := NewLocalWorld(3)
	defer closeWorld(comms)
	runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
		mine := tensor.FromSlice([]float64{float64(c.Rank() * 5)}, 1)
		all, err := c.Allgather(mine)
		if err != nil {
			return nil, err
		}
		for r, a := range all {
			if a.Data[0] != float64(r*5) {
				t.Errorf("rank %d allgather slot %d = %v", c.Rank(), r, a.Data[0])
			}
		}
		return mine, nil
	})
}

func TestAllreduceSum(t *testing.T) {
	comms := NewLocalWorld(4)
	defer closeWorld(comms)
	got := runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
		mine := tensor.FromSlice([]float64{1, float64(c.Rank())}, 2)
		return c.AllreduceSum(mine)
	})
	for r, g := range got {
		if g.Data[0] != 4 || g.Data[1] != 6 { // 0+1+2+3
			t.Fatalf("rank %d allreduce = %v", r, g.Data)
		}
	}
}

func TestExchangeBothDirections(t *testing.T) {
	comms := NewLocalWorld(2)
	defer closeWorld(comms)
	runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
		mine := tensor.FromSlice([]float64{float64(c.Rank() + 1)}, 1)
		theirs, err := c.Exchange(1-c.Rank(), mine)
		if err != nil {
			return nil, err
		}
		want := float64(2 - c.Rank())
		if theirs.Data[0] != want {
			t.Errorf("rank %d exchange got %v, want %v", c.Rank(), theirs.Data[0], want)
		}
		return theirs, nil
	})
}

func TestMatrixInferenceMatchesLocal(t *testing.T) {
	rng := tensor.NewRNG(2)
	spec := nn.MLPSpec{Label: "m", Input: 20, Width: 16, Layers: 4, Classes: 5}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.Randn(3, 20)
	want := net.Forward(x, false)
	for _, worldSize := range []int{2, 4} {
		comms := NewLocalWorld(worldSize)
		nets := perRank(t, spec, net, worldSize)
		got := runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
			if c.Rank() == 0 {
				return MatrixInference(c, nets[0], x)
			}
			return MatrixInference(c, nets[c.Rank()], nil)
		})
		for r, g := range got {
			if !g.AllClose(want, 1e-3) {
				t.Fatalf("world %d rank %d: distributed logits diverge from local", worldSize, r)
			}
		}
		closeWorld(comms)
	}
}

func TestMatrixInferenceMoreRanksThanFeatures(t *testing.T) {
	rng := tensor.NewRNG(3)
	spec := nn.MLPSpec{Label: "m", Input: 3, Width: 2, Layers: 2, Classes: 2}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.Randn(1, 3)
	want := net.Forward(x, false)
	comms := NewLocalWorld(4) // width 2 < 4 ranks: some ranks idle
	defer closeWorld(comms)
	nets := perRank(t, spec, net, 4)
	got := runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
		if c.Rank() == 0 {
			return MatrixInference(c, nets[0], x)
		}
		return MatrixInference(c, nets[c.Rank()], nil)
	})
	for r, g := range got {
		if !g.AllClose(want, 1e-3) {
			t.Fatalf("rank %d diverges with idle ranks", r)
		}
	}
}

// perRank gives each of n ranks its own copy of net, built from spec: a
// layer's Forward keeps its input for Backward, so ranks running at once
// must not share one network.
func perRank(t *testing.T, spec interface {
	Build(*tensor.RNG) (*nn.Network, error)
}, net *nn.Network, n int) []*nn.Network {
	t.Helper()
	nets := make([]*nn.Network, n)
	for i := range nets {
		rank, err := spec.Build(tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		rank.CopyWeightsFrom(net)
		nets[i] = rank
	}
	return nets
}

var shakeSpec = nn.ShakeSpec{Label: "SS", InC: 2, InH: 8, InW: 8, Widths: []int{4, 6}, BlocksPerStage: 1, Classes: 3}

func buildShake(t *testing.T, rng *tensor.RNG) *nn.Network {
	t.Helper()
	net, err := shakeSpec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	// Prime batch-norm running stats so inference mode is meaningful.
	net.Forward(rng.Randn(16, 2*8*8), true)
	return net
}

func TestKernelInferenceMatchesLocal(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := buildShake(t, rng)
	x := rng.Randn(2, 2*8*8)
	want := net.Forward(x, false)
	for _, worldSize := range []int{2, 4} {
		comms := NewLocalWorld(worldSize)
		nets := perRank(t, shakeSpec, net, worldSize)
		got := runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
			if c.Rank() == 0 {
				return KernelInference(c, nets[0], x)
			}
			return KernelInference(c, nets[c.Rank()], nil)
		})
		for r, g := range got {
			if !g.AllClose(want, 1e-2) {
				t.Fatalf("world %d rank %d kernel logits diverge", worldSize, r)
			}
		}
		closeWorld(comms)
	}
}

func TestBranchInferenceMatchesLocal(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := buildShake(t, rng)
	x := rng.Randn(2, 2*8*8)
	want := net.Forward(x, false)
	comms := NewLocalWorld(2)
	defer closeWorld(comms)
	nets := perRank(t, shakeSpec, net, 2)
	got := runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
		if c.Rank() == 0 {
			return BranchInference(c, nets[0], x)
		}
		return BranchInference(c, nets[1], nil)
	})
	for r, g := range got {
		if !g.AllClose(want, 1e-2) {
			t.Fatalf("rank %d branch logits diverge", r)
		}
	}
}

func TestBranchInferenceRejectsWrongWorldSize(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := buildShake(t, rng)
	comms := NewLocalWorld(3)
	defer closeWorld(comms)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			_, errs[i] = BranchInference(c, net, nil)
		}(i, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d accepted 3-rank branch world", r)
		}
	}
}

func TestMatrixCommunicatesPerLayer(t *testing.T) {
	// The defining property of MPI-Matrix: message count scales with layer
	// count. An L-dense-layer MLP must trigger ≥ L collectives.
	rng := tensor.NewRNG(7)
	spec := nn.MLPSpec{Label: "m", Input: 8, Width: 8, Layers: 6, Classes: 4}
	net, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.Randn(1, 8)
	comms := NewLocalWorld(2)
	defer closeWorld(comms)
	nets := perRank(t, spec, net, 2)
	runWorld(t, comms, func(c *Comm) (*tensor.Tensor, error) {
		if c.Rank() == 0 {
			return MatrixInference(c, nets[0], x)
		}
		return MatrixInference(c, nets[1], nil)
	})
	sent, works := 0, 0
	for _, e := range comms[0].Log() {
		switch e.Op {
		case OpSend:
			sent++
		case OpWork:
			works++
		}
	}
	if sent < 6 {
		t.Fatalf("rank 0 sent %d messages for a 6-layer MLP; per-layer comms missing", sent)
	}
	// Every layer declares its work once: a partial product per dense
	// layer, the full layer for each replicated activation.
	if works != len(net.Layers) {
		t.Fatalf("rank 0 logged %d work events for %d layers", works, len(net.Layers))
	}
}

func closeWorld(comms []*Comm) {
	for _, c := range comms {
		c.Close()
	}
}
