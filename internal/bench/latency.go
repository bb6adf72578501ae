package bench

import (
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/transport"
)

// Latency cost model: every system's per-inference critical path, composed
// from the real FLOP counts of the built architectures (nn.LayerFLOPs) and
// the real byte counts of the implemented protocols (cluster/transport wire
// sizes), priced on an edgesim device + link + transport.
//
// All latencies are for a single-sample inference (batch 1), matching the
// paper's per-request measurements.

// Cost describes one system's per-inference cost on the reported device.
type Cost struct {
	ComputeSec float64 // this device's compute on the critical path
	CommSec    float64 // network time on the critical path
	ModelBytes int64   // model resident on this device
	ActBytes   int64   // peak activation footprint
	BusyComm   bool    // transport busy-waits (MPI)
}

// TotalSec returns the modeled end-to-end inference latency.
func (c Cost) TotalSec() float64 { return c.ComputeSec + c.CommSec }

// Ms returns the latency in milliseconds.
func (c Cost) Ms() float64 { return 1000 * c.TotalSec() }

// Usage converts the cost into the paper's resource rows on a device.
func (c Cost) Usage(dev edgesim.Device, gpu bool) edgesim.Usage {
	return edgesim.EstimateUsage(dev, edgesim.UsageInputs{
		ModelBytes:      c.ModelBytes,
		ActivationBytes: c.ActBytes,
		ComputeSec:      c.ComputeSec,
		CommSec:         c.CommSec,
		GPU:             gpu,
		BusyComm:        c.BusyComm,
	})
}

// BaselineCost is the monolithic model running on one device: pure compute,
// no network.
func BaselineCost(dev edgesim.Device, net *nn.Network, inputDim int, gpu bool) Cost {
	return Cost{
		ComputeSec: dev.ComputeTime(nn.NetworkFLOPs(net), gpu),
		ModelBytes: net.SizeBytes(),
		ActBytes:   nn.PeakActivationBytes(net, inputDim),
	}
}

// TeamNetCost is the Figure 1(d) protocol: broadcast the input to K-1 peers
// over raw sockets, all K experts compute in parallel, gather K-1 results,
// arg-min locally. The critical path is the remote branch: broadcast +
// expert compute + result gather. Free of any gate computation — the
// paper's argument for why TeamNet's combiner is cheaper than MoE gating.
func TeamNetCost(dev edgesim.Device, link edgesim.Link, expert *nn.Network, k, features, classes int, gpu bool) Cost {
	n := edgesim.Net{Link: link, Transport: edgesim.Socket()}
	inBytes := transport.FrameWireSize(cluster.InputWireBytes(1, features))
	resBytes := transport.FrameWireSize(cluster.ResultWireBytes(1, classes))
	comm := n.Multicast(inBytes, k-1) + n.Gather(resBytes, k-1)
	return Cost{
		ComputeSec: dev.ComputeTime(nn.NetworkFLOPs(expert), gpu),
		CommSec:    comm,
		ModelBytes: expert.SizeBytes(),
		ActBytes:   nn.PeakActivationBytes(expert, features),
	}
}

// MPIMatrixCost row-partitions every dense layer's matmul across k nodes
// with an all-reduce per layer (internal/mpi's MatrixInference), over the
// MPI transport. Per-layer collectives on WiFi are the dominant term.
func MPIMatrixCost(dev edgesim.Device, link edgesim.Link, mlp *nn.Network, k, features int, gpu bool) Cost {
	n := edgesim.Net{Link: link, Transport: edgesim.MPI()}
	inBytes := transport.FrameWireSize(cluster.InputWireBytes(1, features))
	comm := n.Multicast(inBytes, k-1) // initial input distribution
	compute := 0.0
	for _, layer := range mlp.Layers {
		if d, ok := layer.(*nn.Dense); ok {
			compute += dev.ComputeTime(nn.LayerFLOPs(d)/float64(k), gpu)
			actBytes := transport.FrameWireSize(tensorWireBytes(1, d.Out()))
			comm += n.Collective(actBytes, actBytes, k-1)
			continue
		}
		compute += dev.ComputeTime(nn.LayerFLOPs(layer), gpu)
	}
	return Cost{
		ComputeSec: compute,
		CommSec:    comm,
		ModelBytes: mlp.SizeBytes() / int64(k),
		ActBytes:   nn.PeakActivationBytes(mlp, features),
		BusyComm:   true,
	}
}

// MPIKernelCost channel-partitions every convolution across k nodes with an
// all-gather per convolution (internal/mpi's KernelInference).
func MPIKernelCost(dev edgesim.Device, link edgesim.Link, net *nn.Network, k, features int, gpu bool) Cost {
	n := edgesim.Net{Link: link, Transport: edgesim.MPI()}
	inBytes := transport.FrameWireSize(cluster.InputWireBytes(1, features))
	cost := Cost{
		CommSec:    n.Multicast(inBytes, k-1),
		ModelBytes: net.SizeBytes() / int64(k),
		ActBytes:   nn.PeakActivationBytes(net, features),
		BusyComm:   true,
	}
	addKernelLayers(&cost, dev, n, net.Layers, k, gpu)
	return cost
}

func addKernelLayers(cost *Cost, dev edgesim.Device, n edgesim.Net, layers []nn.Layer, k int, gpu bool) {
	for _, layer := range layers {
		switch l := layer.(type) {
		case *nn.Conv2D:
			addKernelConv(cost, dev, n, l, k, gpu)
		case *nn.ShakeShake:
			addKernelLayers(cost, dev, n, l.Branch1.Layers, k, gpu)
			addKernelLayers(cost, dev, n, l.Branch2.Layers, k, gpu)
			if skip, ok := l.Skip.(*nn.Conv2D); ok {
				addKernelConv(cost, dev, n, skip, k, gpu)
			}
		default:
			cost.ComputeSec += dev.ComputeTime(nn.LayerFLOPs(layer), gpu)
		}
	}
}

func addKernelConv(cost *Cost, dev edgesim.Device, n edgesim.Net, l *nn.Conv2D, k int, gpu bool) {
	cost.ComputeSec += dev.ComputeTime(nn.LayerFLOPs(l)/float64(k), gpu)
	full := l.OutFeatures()
	partBytes := transport.FrameWireSize(tensorWireBytes(1, (full+k-1)/k))
	fullBytes := transport.FrameWireSize(tensorWireBytes(1, full))
	cost.CommSec += n.Collective(partBytes, fullBytes, k-1)
}

// MPIBranchCost splits the two Shake-Shake branches of every block between
// two nodes, exchanging branch outputs once per block (internal/mpi's
// BranchInference).
func MPIBranchCost(dev edgesim.Device, link edgesim.Link, net *nn.Network, features int, gpu bool) Cost {
	n := edgesim.Net{Link: link, Transport: edgesim.MPI()}
	inBytes := transport.FrameWireSize(cluster.InputWireBytes(1, features))
	cost := Cost{
		CommSec:    n.Unicast(inBytes),
		ModelBytes: net.SizeBytes() / 2,
		ActBytes:   nn.PeakActivationBytes(net, features),
		BusyComm:   true,
	}
	for _, layer := range net.Layers {
		switch l := layer.(type) {
		case *nn.ShakeShake:
			// One branch locally (+ skip), then a bidirectional exchange.
			branch := nn.NetworkFLOPs(l.Branch1)
			if b2 := nn.NetworkFLOPs(l.Branch2); b2 > branch {
				branch = b2
			}
			if l.Skip != nil {
				branch += nn.LayerFLOPs(l.Skip)
			}
			cost.ComputeSec += dev.ComputeTime(branch, gpu)
			outBytes := transport.FrameWireSize(tensorWireBytes(1, shakeOutFeatures(l)))
			cost.CommSec += 2 * n.Unicast(outBytes)
		default:
			cost.ComputeSec += dev.ComputeTime(nn.LayerFLOPs(layer), gpu)
		}
	}
	return cost
}

// shakeOutFeatures returns a Shake-Shake block's output width.
func shakeOutFeatures(s *nn.ShakeShake) int {
	layers := s.Branch1.Layers
	for i := len(layers) - 1; i >= 0; i-- {
		switch v := layers[i].(type) {
		case *nn.Conv2D:
			return v.OutFeatures()
		case *nn.BatchNorm:
			return v.C * v.S
		case *nn.Dense:
			return v.Out()
		}
	}
	return 0
}

// grpcEnvelopeBytes is the per-call envelope of the paper's gRPC byte model
// beyond the tensor body: a request envelope (8-byte call id, 2-byte method
// length, the 7-byte method name "predict"), a response envelope (8-byte id,
// 1-byte status) and two 5-byte frame headers. Together with edgesim's gRPC
// per-message overhead it is all that sets an SG-MoE-G table cell apart from
// a raw-socket one; the live SG-MoE-G runtime rides TeamNet's own frames.
const grpcEnvelopeBytes = (8 + 2 + len("predict")) + (8 + 1) + 2*5

// SGMoECost is the sparsely-gated runtime: the master evaluates the gate,
// dispatches the input to the topK selected expert nodes over the given
// transport (gRPC or MPI), and mixes the returned probabilities. The gate
// hop serializes before any expert can start.
func SGMoECost(dev edgesim.Device, link edgesim.Link, tr edgesim.Transport,
	gate, expert *nn.Network, topK, features, classes int, gpu bool) Cost {
	n := edgesim.Net{Link: link, Transport: tr}
	inBytes := transport.FrameWireSize(cluster.InputWireBytes(1, features))
	resBytes := transport.FrameWireSize(tensorWireBytes(1, classes))
	if tr.Name == "grpc" {
		inBytes += grpcEnvelopeBytes
	}
	comm := n.Multicast(inBytes, topK) + n.Gather(resBytes, topK)
	compute := dev.ComputeTime(nn.NetworkFLOPs(gate), gpu) +
		dev.ComputeTime(nn.NetworkFLOPs(expert), gpu)
	return Cost{
		ComputeSec: compute,
		CommSec:    comm,
		ModelBytes: expert.SizeBytes() + gate.SizeBytes(),
		ActBytes:   nn.PeakActivationBytes(expert, features),
		BusyComm:   tr.BusyWait,
	}
}

// tensorWireBytes is the wire size of a rank-2 [rows, cols] float32 tensor.
func tensorWireBytes(rows, cols int) int {
	return 1 + 4*2 + 4*rows*cols
}
