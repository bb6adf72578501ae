// Package cluster is the live distributed-inference runtime of Figure 1(d):
// TeamNet experts served over raw TCP sockets by nodes, a master that
// broadcasts sensor data, gathers predictions with uncertainties, and
// selects the least-uncertain answer; a bully leader election for the
// distributed variant of step 5; and the SG-MoE runtimes (gate + selected
// experts over the same sockets for SG-MoE-G, over the MPI substrate for
// SG-MoE-M).
//
// The runtime assumes an edge fault model — peers stall, reset, vanish and
// return — and self-heals rather than failing fast: every peer runs the
// supervision state machine in supervisor.go (healthy → suspect → open →
// half-open, a circuit breaker with background probe re-admission), round
// trips carry a bounded retry budget with backoff, and a best-effort or
// quorum Request routes around quarantined peers entirely. The chaos
// package drives these paths in tests and live drills.
//
// The same runtime is fully instrumented: latency histograms and counters
// are always recorded, and an optional internal/trace tracer decomposes
// each query into serialize / network / remote-compute / gate spans with
// trace ids propagated gateway → master → worker in the frame header
// (header.go, DESIGN.md §7).
//
// There is one request model, one wire protocol and one server loop:
// Master.Do answers every Request (request.go), every request a node sends
// is a mux frame under the one frame header (mux.go, header.go), every
// process that listens is a Node running the server loop in server.go
// (node.go), and all nodes of a fleet run one build.
//
// Everything here runs over real connections — the unit tests and the live
// benchmark mode exercise actual loopback TCP; the simulated experiments
// price the same protocol's byte counts through internal/edgesim.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Frame types of the TeamNet socket protocol.
const (
	// MsgPing / MsgPong probe liveness.
	MsgPing byte = iota + 1
	MsgPong
	// MsgElection / MsgElectionOK implement the bully election (Section
	// III's "leader election protocol" option): a probe and the answering
	// node's id.
	MsgElection
	MsgElectionOK
	_ // was a coordinator announcement nothing ever sent; the number stays reserved so no frame type moves
	// MsgError reports a failed control exchange, or a stream the server is
	// about to drop (unknown frame type), as text.
	MsgError
	// MsgPredictMux carries an input tensor master → worker (Fig 1d step
	// 2), MsgResultMux probabilities + per-sample entropies back (step 4),
	// MsgErrorMux a per-request failure as text. Every payload of these and
	// of the fabric and split frames below starts with the frame header
	// (header.go), whose request id lets many concurrent queries share one
	// TCP connection per peer with replies out of order (see mux.go and
	// DESIGN.md §8).
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
	// expert's probabilities + entropies (see node.go, fabric.go).
	MsgFabricPredict
	MsgFabricResult
	// MsgSplitPredict / MsgSplitResult are the partial-offload frames: the
	// master runs the head of the network locally and ships the intermediate
	// activation (full float64 precision — the split contract is bit-identity
	// with the local forward) plus the split index, pinned to its model
	// version in the header; the peer finishes the tail from its atomic
	// snapshot pointer.
	// Mux-pipelined like MsgPredictMux and answered on the same link
	// (MsgSplitResult / MsgErrorMux; see splitwire.go and DESIGN.md §13).
	MsgSplitPredict
	MsgSplitResult
)

// replyTypeFor maps each pipelined request frame type to the reply that
// answers it; MsgErrorMux answers any of them.
var replyTypeFor = map[byte]byte{
	MsgPredictMux:    MsgResultMux,
	MsgFabricPredict: MsgFabricResult,
	MsgSplitPredict:  MsgSplitResult,
}

// connReadBuffer sizes the bufio.Reader in front of every long-lived read
// loop (mux client, node), so a frame smaller than it costs one read syscall
// instead of one for the header and one for the payload.
const connReadBuffer = 64 << 10

// PredictResult is one node's answer for a batch: class probabilities and
// the predictive entropy per sample.
type PredictResult struct {
	Probs   *tensor.Tensor
	Entropy []float64
}

// EncodeResult serializes a whole-query PredictResult body: float32
// probabilities, float64 entropies.
func EncodeResult(r PredictResult) []byte { return encodeResult(r, transport.EncodeTensor) }

// encodeResult serializes a PredictResult body under the given tensor codec:
// transport.EncodeTensor for MsgResultMux, the full-precision
// transport.EncodeTensor64 for MsgSplitResult.
func encodeResult(r PredictResult, encodeTensor func(*tensor.Tensor) []byte) []byte {
	probs := encodeTensor(r.Probs)
	ent := transport.EncodeFloats(r.Entropy)
	out := make([]byte, 0, len(probs)+len(ent))
	out = append(out, probs...)
	return append(out, ent...)
}

// decodeResult parses a PredictResult body under the given tensor codec.
// The reply comes from another machine, so its shape is checked here, once,
// against what was asked: rows of classes probabilities and one entropy per
// row. Everything downstream (the arg-min gate) indexes by those dimensions
// without looking again.
func decodeResult(body []byte, decodeTensor func([]byte, ...*tensor.Tensor) (*tensor.Tensor, int, error), rows, classes int) (PredictResult, error) {
	probs, used, err := decodeTensor(body)
	if err != nil {
		return PredictResult{}, fmt.Errorf("cluster: decode result probs: %w", err)
	}
	ent, _, err := transport.DecodeFloats(body[used:])
	if err != nil {
		return PredictResult{}, fmt.Errorf("cluster: decode result entropy: %w", err)
	}
	if err := checkResultShape(probs, len(ent), rows, classes); err != nil {
		return PredictResult{}, err
	}
	return PredictResult{Probs: probs, Entropy: ent}, nil
}

// checkResultShape is the one shape rule for a result that crossed the
// wire: a rank-2 rows×classes tensor with one entropy per row.
func checkResultShape(probs *tensor.Tensor, entropies, rows, classes int) error {
	if len(probs.Shape) != 2 || probs.Shape[0] != rows || probs.Shape[1] != classes || entropies != rows {
		return fmt.Errorf("cluster: result shape %v with %d entropies, want [%d %d] with %d",
			probs.Shape, entropies, rows, classes, rows)
	}
	return nil
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

// controlCall performs one control exchange on conn within timeout (0 = no
// deadline): send reqType, read one frame, and return its payload if it is
// wantType. A MsgError reply surfaces as the peer's error text.
func controlCall(conn net.Conn, timeout time.Duration, reqType byte, payload []byte, wantType byte) ([]byte, error) {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, fmt.Errorf("set deadline: %w", err)
		}
		defer conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	if err := transport.WriteFrame(conn, reqType, payload); err != nil {
		return nil, err
	}
	typ, reply, err := transport.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	switch typ {
	case wantType:
		return reply, nil
	case MsgError:
		return nil, errors.New(string(reply))
	default:
		return nil, fmt.Errorf("unexpected frame type %d", typ)
	}
}

// controlDial is controlCall on a connection dialed for the one exchange;
// timeout bounds the dial and the round trip each.
func controlDial(addr string, timeout time.Duration, reqType byte, payload []byte, wantType byte) ([]byte, error) {
	conn, err := transport.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	return controlCall(conn, timeout, reqType, payload, wantType)
}
