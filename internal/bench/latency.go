package bench

import (
	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/transport"
)

// Latency cost model: every system's per-inference critical path, priced on
// an edgesim device + link + transport. The baseline and TeamNet are formulas
// over the real FLOP counts of the built architectures (nn.LayerFLOPs) and
// the byte counts of the protocol's messages (the envelope below); the MPI
// and SG-MoE baselines are recorded runs of their runtimes (replay.go).
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

// Ms returns the modeled end-to-end inference latency in milliseconds.
func (c Cost) Ms() float64 { return 1000 * (c.ComputeSec + c.CommSec) }

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
	inBytes := transport.FrameWireSize(tensorWireBytes(1, features))
	resBytes := transport.FrameWireSize(resultWireBytes(1, classes))
	comm := n.Multicast(inBytes, k-1) + n.Gather(resBytes, k-1)
	return Cost{
		ComputeSec: dev.ComputeTime(nn.NetworkFLOPs(expert), gpu),
		CommSec:    comm,
		ModelBytes: expert.SizeBytes(),
		ActBytes:   nn.PeakActivationBytes(expert, features),
	}
}

// grpcEnvelopeBytes is the per-call envelope of the paper's gRPC byte model
// beyond the tensor body: a request envelope (8-byte call id, 2-byte method
// length, the 7-byte method name "predict"), a response envelope (8-byte id,
// 1-byte status) and two 5-byte frame headers. Together with edgesim's gRPC
// per-message overhead it is all that sets an SG-MoE-G table cell apart from
// SG-MoE-M's, which prices the same recorded run (run.cost); the live
// SG-MoE-G runtime rides TeamNet's own frames.
const grpcEnvelopeBytes = (8 + 2 + len("predict")) + (8 + 1) + 2*5

// The paper's envelope: the byte counts the baseline, TeamNet and split-sweep
// formulas price, owned by the cost model rather than read from the live
// codec, so a change to TeamNet's frames moves no table cell. A message is a
// rank-2 tensor — one rank byte, two u32 dims, the values — and an expert's
// answer adds its float64 entropies, one per row, behind a u32 count. Inputs
// and answers travel float32; the split sweep's activations and answers
// travel float64, the precision of the bit-identity contract.

// tensorWireBytes is the wire size of a rank-2 [rows, cols] float32 tensor.
func tensorWireBytes(rows, cols int) int {
	return 1 + 4*2 + 4*rows*cols
}

// tensor64WireBytes is tensorWireBytes's float64 twin.
func tensor64WireBytes(rows, cols int) int {
	return 1 + 4*2 + 8*rows*cols
}

// resultWireBytes is one expert's answer for rows samples: the float32
// probabilities and the entropies.
func resultWireBytes(rows, classes int) int {
	return tensorWireBytes(rows, classes) + entropyWireBytes(rows)
}

// entropyWireBytes is the count and the float64 entropies of rows samples.
func entropyWireBytes(rows int) int { return 4 + 8*rows }
