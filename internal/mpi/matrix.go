package mpi

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// MPI-Matrix (paper Section VI-A): the weight (matrix) multiplication of
// every dense layer is split across edge nodes. Rank r multiplies its block
// of input features by the matching row block of W; the partial products
// are summed with an all-reduce — one collective per layer, which is
// exactly the "frequent communication per each matrix multiplication" the
// paper blames for MPI's poor WiFi performance.

// blockRange splits n items across size ranks, giving rank its half-open
// range. Remainders go to the leading ranks.
func blockRange(n, size, rank int) (lo, hi int) {
	base := n / size
	rem := n % size
	lo = rank*base + minInt(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// MatrixInference runs one forward pass of an MLP with every dense layer's
// matmul row-partitioned across the world. Rank 0 supplies x; other ranks
// pass nil and receive it via broadcast (the paper's step-1 data
// distribution). Every rank returns the identical logits.
func MatrixInference(comm *Comm, net *nn.Network, x *tensor.Tensor) (*tensor.Tensor, error) {
	act, err := comm.Bcast(0, x)
	if err != nil {
		return nil, fmt.Errorf("mpi: matrix bcast input: %w", err)
	}
	for li, layer := range net.Layers {
		switch l := layer.(type) {
		case *nn.Dense:
			partial, err := densePartial(comm, l, act)
			if err != nil {
				return nil, fmt.Errorf("mpi: matrix layer %d: %w", li, err)
			}
			sum, err := comm.AllreduceSum(partial)
			if err != nil {
				return nil, fmt.Errorf("mpi: matrix allreduce layer %d: %w", li, err)
			}
			sum.AddRowVector(l.B) // bias replicated on every rank
			act = sum
		default:
			act = replicated(comm, layer, act)
		}
	}
	return act, nil
}

// densePartial computes this rank's partial product: the input-feature
// block times the matching row block of W. Ranks beyond the feature count
// contribute a zero partial.
func densePartial(comm *Comm, l *nn.Dense, act *tensor.Tensor) (*tensor.Tensor, error) {
	in, out := l.In(), l.Out()
	lo, hi := blockRange(in, comm.Size(), comm.Rank())
	if lo == hi {
		return tensor.New(act.Shape[0], out), nil
	}
	wBlock := tensor.RowBlock(l.W, lo, hi)
	xBlock := selectCols(act, lo, hi)
	comm.Work(nn.LayerFLOPs(l) * float64(act.Shape[0]*(hi-lo)) / float64(in))
	return tensor.MatMul(xBlock, wBlock), nil
}

// replicated runs a layer every rank computes in full (activations, batch
// norm, pooling) and declares its work.
func replicated(comm *Comm, layer nn.Layer, act *tensor.Tensor) *tensor.Tensor {
	comm.Work(nn.LayerFLOPs(layer) * float64(act.Shape[0]))
	return layer.Forward(act, false)
}

// selectCols copies the half-open column range of a rank-2 tensor.
func selectCols(t *tensor.Tensor, lo, hi int) *tensor.Tensor {
	rows, cols := t.Shape[0], t.Shape[1]
	out := tensor.New(rows, hi-lo)
	for r := 0; r < rows; r++ {
		copy(out.Data[r*(hi-lo):(r+1)*(hi-lo)], t.Data[r*cols+lo:r*cols+hi])
	}
	return out
}
