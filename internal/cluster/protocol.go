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
// trace ids propagated master → worker as payload trailers (tracewire.go,
// DESIGN.md §7).
//
// There is one wire protocol and one server loop: every request a node
// sends is a mux frame (mux.go), every node that listens runs the frame
// server in server.go, and all nodes of a fleet run one build.
//
// Everything here runs over real connections — the unit tests and the live
// benchmark mode exercise actual loopback TCP; the simulated experiments
// price the same protocol's byte counts through internal/edgesim.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Frame types of the TeamNet socket protocol.
const (
	// MsgPredict / MsgResult were the paper's one-in-flight request and
	// reply (Fig 1d steps 2 and 4). Nothing sends them any more — the
	// numbers stay reserved so every other frame type keeps its wire value.
	MsgPredict byte = iota + 1
	MsgResult
	// MsgPing / MsgPong probe liveness.
	MsgPing
	MsgPong
	// MsgElection / MsgElectionOK / MsgCoordinator implement the bully
	// election (Section III's "leader election protocol" option).
	MsgElection
	MsgElectionOK
	MsgCoordinator
	// MsgError reports a failed control exchange, or a stream the server is
	// about to drop (unknown frame type), as text.
	MsgError
	// MsgPredictMux carries an input tensor master → worker (Fig 1d step
	// 2), MsgResultMux probabilities + per-sample entropies back (step 4),
	// MsgErrorMux a per-request failure as text. Every payload starts with
	// a 4-byte big-endian request id, so many concurrent queries share one
	// TCP connection per peer and replies may return out of order (see
	// mux.go and DESIGN.md §8).
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

// decodeResultRest parses a PredictResult payload and returns the trailing
// bytes after the entropies, where workers append their compute-timing
// trailer. The reply comes from another machine, so its shape is checked
// here, once, against what was asked: rows of classes probabilities and one
// entropy per row. Everything downstream (the arg-min gate, the adaptive
// escalation) indexes by those dimensions without looking again.
func decodeResultRest(payload []byte, rows, classes int) (PredictResult, []byte, error) {
	probs, used, err := transport.DecodeTensor(payload)
	if err != nil {
		return PredictResult{}, nil, fmt.Errorf("cluster: decode result probs: %w", err)
	}
	ent, entUsed, err := transport.DecodeFloats(payload[used:])
	if err != nil {
		return PredictResult{}, nil, fmt.Errorf("cluster: decode result entropy: %w", err)
	}
	if err := checkResultShape(probs, len(ent), rows, classes); err != nil {
		return PredictResult{}, nil, err
	}
	return PredictResult{Probs: probs, Entropy: ent}, payload[used+entUsed:], nil
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
