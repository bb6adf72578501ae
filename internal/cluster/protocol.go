// Package cluster is the live distributed-inference runtime of Figure 1(d):
// TeamNet experts served over raw TCP sockets by worker nodes, a master
// that broadcasts sensor data, gathers predictions with uncertainties, and
// selects the least-uncertain answer; a bully leader election for the
// distributed variant of step 5; and the SG-MoE runtimes (gate + selected
// experts over RPC for SG-MoE-G, over the MPI substrate for SG-MoE-M).
//
// The runtime assumes an edge fault model — peers stall, reset, vanish and
// return — and self-heals rather than failing fast: every peer runs the
// supervision state machine in supervisor.go (healthy → suspect → open →
// half-open, a circuit breaker with background probe re-admission), round
// trips carry a bounded retry budget with backoff, and InferBestEffort
// routes around quarantined peers entirely. The chaos package drives these
// paths in tests and live drills.
//
// The same runtime is fully instrumented: latency histograms and counters
// are always recorded, and an optional internal/trace tracer decomposes
// each query into serialize / network / remote-compute / gate spans with
// trace ids propagated master → worker as backward-compatible payload
// trailers (tracewire.go, DESIGN.md §7).
//
// Everything here runs over real connections — the unit tests and the live
// benchmark mode exercise actual loopback TCP; the simulated experiments
// price the same protocol's byte counts through internal/edgesim.
package cluster

import (
	"encoding/binary"
	"fmt"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Frame types of the TeamNet socket protocol.
const (
	// MsgPredict carries an input tensor master → worker (Fig 1d step 2).
	MsgPredict byte = iota + 1
	// MsgResult carries probabilities + per-sample entropies back
	// (Fig 1d step 4).
	MsgResult
	// MsgPing / MsgPong probe liveness.
	MsgPing
	MsgPong
	// MsgElection / MsgElectionOK / MsgCoordinator implement the bully
	// election (Section III's "leader election protocol" option).
	MsgElection
	MsgElectionOK
	MsgCoordinator
	// MsgError reports a worker-side failure as text.
	MsgError
	// MsgPredictMux / MsgResultMux / MsgErrorMux are the multiplexed
	// variants of MsgPredict / MsgResult / MsgError: the payload carries a
	// 4-byte big-endian request id ahead of the regular encoding, so many
	// concurrent queries share one TCP connection per peer and replies may
	// return out of order (see mux.go and DESIGN.md §8).
	MsgPredictMux
	MsgResultMux
	MsgErrorMux
	// MsgAnnounce / MsgAnnounceOK carry fabric membership: a JSON-encoded
	// announcement (the sender's Member descriptor plus a bounded sample of
	// its roster) exchanged gateway↔master↔worker; each exchange merges
	// both sides' rosters — cheap anti-entropy gossip (see membership.go).
	MsgAnnounce
	MsgAnnounceOK
	// MsgModelPush / MsgModelPushOK distribute a versioned expert snapshot
	// over the wire (nn.Spec JSON + the nn/snapshot codec stream) so masters
	// and workers hot-swap models without restart (see modelpush.go).
	MsgModelPush
	MsgModelPushOK
	// MsgFabricPredict / MsgFabricResult are the gateway→master inference
	// frames: mux-pipelined like MsgPredictMux, but the reply carries the
	// combined ensemble answer (winners + live/total quorum) instead of one
	// expert's probabilities + entropies (see masterserver.go).
	MsgFabricPredict
	MsgFabricResult
	// MsgSplitPredict / MsgSplitResult are the partial-offload frames: the
	// master runs the head of the network locally and ships the intermediate
	// activation (full float64 precision — the split contract is bit-identity
	// with the local forward) plus the split index and expected model
	// version; the peer finishes the tail from its atomic snapshot pointer.
	// Mux-pipelined like MsgPredictMux and answered on the same link
	// (MsgSplitResult / MsgErrorMux; see splitwire.go and DESIGN.md §13).
	MsgSplitPredict
	MsgSplitResult
)

// muxIDSize is the request-id prefix every mux payload carries.
const muxIDSize = 4

// connReadBuffer sizes the bufio.Reader in front of every long-lived read
// loop (mux client, worker, master server), so a frame smaller than it costs
// one read syscall instead of one for the header and one for the payload.
const connReadBuffer = 64 << 10

// muxIDPrefix renders a request id as the prefix of a mux payload.
func muxIDPrefix(id uint32) (b [muxIDSize]byte) {
	binary.BigEndian.PutUint32(b[:], id)
	return b
}

// splitMuxID strips the request-id prefix from a mux payload.
func splitMuxID(payload []byte) (id uint32, rest []byte, err error) {
	if len(payload) < muxIDSize {
		return 0, nil, fmt.Errorf("cluster: mux payload %d bytes, need id prefix", len(payload))
	}
	return binary.BigEndian.Uint32(payload), payload[muxIDSize:], nil
}

// PredictResult is one node's answer for a batch: class probabilities and
// the predictive entropy per sample.
type PredictResult struct {
	Probs   *tensor.Tensor
	Entropy []float64
}

// EncodeResult serializes a PredictResult payload.
func EncodeResult(r PredictResult) []byte {
	probs := transport.EncodeTensor(r.Probs)
	ent := transport.EncodeFloats(r.Entropy)
	out := make([]byte, 0, len(probs)+len(ent))
	out = append(out, probs...)
	return append(out, ent...)
}

// DecodeResult parses a PredictResult payload, ignoring any trailing bytes
// (which carry the optional timing trailer — see tracewire.go).
func DecodeResult(payload []byte) (PredictResult, error) {
	r, _, err := decodeResultRest(payload)
	return r, err
}

// decodeResultRest parses a PredictResult payload and also returns the
// trailing bytes after the entropies, where trace-aware workers append
// their compute-timing trailer.
func decodeResultRest(payload []byte) (PredictResult, []byte, error) {
	probs, used, err := transport.DecodeTensor(payload)
	if err != nil {
		return PredictResult{}, nil, fmt.Errorf("cluster: decode result probs: %w", err)
	}
	ent, entUsed, err := transport.DecodeFloats(payload[used:])
	if err != nil {
		return PredictResult{}, nil, fmt.Errorf("cluster: decode result entropy: %w", err)
	}
	if probs.Shape[0] != len(ent) {
		return PredictResult{}, nil, fmt.Errorf("cluster: result rows %d != entropies %d", probs.Shape[0], len(ent))
	}
	return PredictResult{Probs: probs, Entropy: ent}, payload[used+entUsed:], nil
}

// ResultWireBytes reports the on-wire payload size of a result for a batch
// of the given dimensions — used by the cost model.
func ResultWireBytes(batch, classes int) int {
	probs := 1 + 4*2 + 4*batch*classes
	ent := 4 + 8*batch
	return probs + ent
}

// InputWireBytes reports the on-wire payload size of a broadcast input.
func InputWireBytes(batch, features int) int {
	return 1 + 4*2 + 4*batch*features
}
