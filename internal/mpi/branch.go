package mpi

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// MPI-Branch (paper Section VI-A): "there are two main branches in the
// Shake-Shake CNN, which can be split into two edge nodes and coordinated
// through the MPI protocol". Rank 0 evaluates branch one of every
// Shake-Shake block, rank 1 evaluates branch two; the branch outputs are
// exchanged once per block. All other layers are replicated. The scheme is
// only defined for a world of exactly two ranks.

// BranchInference runs one forward pass with the Shake-Shake branches of
// every block split between two ranks. Rank 0 supplies x; both ranks return
// identical logits.
func BranchInference(comm *Comm, net *nn.Network, x *tensor.Tensor) (*tensor.Tensor, error) {
	if comm.Size() != 2 {
		return nil, fmt.Errorf("mpi: branch scheme requires exactly 2 ranks, world has %d", comm.Size())
	}
	act, err := comm.Bcast(0, x)
	if err != nil {
		return nil, fmt.Errorf("mpi: branch bcast input: %w", err)
	}
	for li, layer := range net.Layers {
		switch l := layer.(type) {
		case *nn.ShakeShake:
			act, err = branchBlock(comm, l, act)
			if err != nil {
				return nil, fmt.Errorf("mpi: branch block %d: %w", li, err)
			}
		default:
			act = replicated(comm, layer, act)
		}
	}
	return act, nil
}

// branchBlock computes the local branch and the (replicated) skip path,
// swaps branch outputs with the peer, and combines them with the
// inference-time 0.5/0.5 mix.
func branchBlock(comm *Comm, l *nn.ShakeShake, act *tensor.Tensor) (*tensor.Tensor, error) {
	branch := l.Branch1
	if comm.Rank() == 1 {
		branch = l.Branch2
	}
	flops := nn.NetworkFLOPs(branch)
	mine := branch.Forward(act, false)
	res := act
	if l.Skip != nil {
		flops += nn.LayerFLOPs(l.Skip)
		res = l.Skip.Forward(act, false)
	}
	comm.Work(flops * float64(act.Shape[0]))
	theirs, err := comm.Exchange(1-comm.Rank(), mine)
	if err != nil {
		return nil, err
	}
	b1, b2 := mine, theirs
	if comm.Rank() == 1 {
		b1, b2 = theirs, mine
	}
	out := tensor.Add(tensor.Scale(b1, 0.5), tensor.Scale(b2, 0.5))
	return tensor.Add(out, res), nil
}
