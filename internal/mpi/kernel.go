package mpi

import (
	"fmt"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// MPI-Kernel (paper Section VI-A): "distribute convolutional kernels and
// their associated computation onto multiple edge devices". Each rank
// computes a block of every convolution's output channels; the channel
// blocks are all-gathered into the full activation before the next layer —
// one collective per convolution, on every branch of every block.

// KernelInference runs one forward pass of a CNN with every Conv2D's output
// channels partitioned across the world. Rank 0 supplies x; every rank
// returns identical logits.
func KernelInference(comm *Comm, net *nn.Network, x *tensor.Tensor) (*tensor.Tensor, error) {
	act, err := comm.Bcast(0, x)
	if err != nil {
		return nil, fmt.Errorf("mpi: kernel bcast input: %w", err)
	}
	return kernelRunLayers(comm, net.Layers, act)
}

func kernelRunLayers(comm *Comm, layers []nn.Layer, act *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for li, layer := range layers {
		act, err = kernelRunLayer(comm, layer, act)
		if err != nil {
			return nil, fmt.Errorf("mpi: kernel layer %d (%s): %w", li, layer.Name(), err)
		}
	}
	return act, nil
}

func kernelRunLayer(comm *Comm, layer nn.Layer, act *tensor.Tensor) (*tensor.Tensor, error) {
	switch l := layer.(type) {
	case *nn.Conv2D:
		return kernelConv(comm, l, act)
	case *nn.ShakeShake:
		// Both branches (and the skip projection) are themselves kernel-
		// partitioned; the 0.5/0.5 inference mix is computed on every rank.
		b1, err := kernelRunLayers(comm, l.Branch1.Layers, act)
		if err != nil {
			return nil, err
		}
		b2, err := kernelRunLayers(comm, l.Branch2.Layers, act)
		if err != nil {
			return nil, err
		}
		out := tensor.Add(tensor.Scale(b1, 0.5), tensor.Scale(b2, 0.5))
		res := act
		if l.Skip != nil {
			res, err = kernelRunLayer(comm, l.Skip, act)
			if err != nil {
				return nil, err
			}
		}
		return tensor.Add(out, res), nil
	default:
		return replicated(comm, layer, act), nil
	}
}

// kernelConv computes this rank's output-channel block of one convolution
// and all-gathers the blocks into the full NCHW activation.
func kernelConv(comm *Comm, l *nn.Conv2D, act *tensor.Tensor) (*tensor.Tensor, error) {
	g := l.Geom
	lo, hi := blockRange(g.OutC, comm.Size(), comm.Rank())
	batch := act.Shape[0]
	spatial := g.OutH * g.OutW

	// Partial channels: im2col is local (it involves no parameters), the
	// matmul uses only this rank's column block of the kernel matrix.
	var partial *tensor.Tensor
	if lo == hi {
		partial = tensor.New(batch, 0)
	} else {
		comm.Work(nn.LayerFLOPs(l) * float64(batch*(hi-lo)) / float64(g.OutC))
		cols := tensor.Im2Col(act, g)
		wBlock := selectCols(l.W, lo, hi) // [patchLen, hi-lo]
		y := tensor.MatMul(cols, wBlock)  // [batch·spatial, hi-lo]
		for r := 0; r < y.Shape[0]; r++ {
			row := y.RowSlice(r)
			for c := range row {
				row[c] += l.B.Data[lo+c]
			}
		}
		// To NCHW rows with just this rank's channels.
		partial = tensor.New(batch, (hi-lo)*spatial)
		for b := 0; b < batch; b++ {
			for s := 0; s < spatial; s++ {
				src := y.Data[(b*spatial+s)*(hi-lo):]
				for c := 0; c < hi-lo; c++ {
					partial.Data[b*(hi-lo)*spatial+c*spatial+s] = src[c]
				}
			}
		}
	}

	blocks, err := comm.Allgather(partial)
	if err != nil {
		return nil, err
	}
	// Reassemble full channel dimension in rank order.
	out := tensor.New(batch, g.OutC*spatial)
	for r, blk := range blocks {
		blo, bhi := blockRange(g.OutC, comm.Size(), r)
		nch := bhi - blo
		if nch == 0 {
			continue
		}
		for b := 0; b < batch; b++ {
			src := blk.Data[b*nch*spatial:]
			dst := out.Data[b*g.OutC*spatial+blo*spatial:]
			copy(dst[:nch*spatial], src[:nch*spatial])
		}
	}
	return out, nil
}
