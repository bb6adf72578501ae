package bench

import (
	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/nn"
)

// Latency cost model: every system's per-inference critical path, priced on
// an edgesim device + link + transport. The baseline is a formula over the
// real FLOP count of the built architecture (nn.LayerFLOPs); every
// distributed system — TeamNet, the MPI schemes, SG-MoE — is a per-rank log
// of frames and compute priced by one replay (replay.go), its frame sizes
// the ones the code sends.
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

// grpcEnvelopeBytes is the per-call envelope of the paper's gRPC byte model
// beyond the tensor body: a request envelope (8-byte call id, 2-byte method
// length, the 7-byte method name "predict"), a response envelope (8-byte id,
// 1-byte status) and two 5-byte frame headers. Together with edgesim's gRPC
// per-message overhead it is all that sets an SG-MoE-G table cell apart from
// SG-MoE-M's, which prices the same recorded run (run.cost); the live
// SG-MoE-G runtime rides TeamNet's own frames.
const grpcEnvelopeBytes = (8 + 2 + len("predict")) + (8 + 1) + 2*5
