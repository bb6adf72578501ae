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
// is one MsgDo frame under the one frame header, answered by one MsgReply
// (this file, mux.go, header.go), every process that listens is a Node
// running the server loop in server.go (node.go), and all nodes of a fleet
// run one build.
//
// Everything here runs over real connections — the unit tests and the live
// benchmark mode exercise actual loopback TCP; the simulated experiments
// price the paper's protocol through internal/edgesim.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	_ // 7 and 8: the retired whole-query request and its result
	_
	// MsgErrorMux answers a MsgDo with a per-request failure as text.
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
	// 14 to 17: the retired fabric and split request kinds and their results.
	// Every retired kind's number stays reserved, so a node of an older build
	// is refused with "unknown frame type" instead of being misparsed.
	_
	_
	_
	_
	// MsgDo carries one Request — a master's broadcast to a peer (Fig 1d
	// step 2), a split tail, a gateway's query to a master — and MsgReply
	// its Reply (step 4). Both payloads start with the frame header
	// (header.go), whose request id lets many concurrent requests share one
	// TCP connection per peer with replies out of order (see mux.go and
	// DESIGN.md §8).
	MsgDo
	MsgReply
)

// connReadBuffer sizes the bufio.Reader in front of every long-lived read
// loop (mux client, node), so a frame smaller than it costs one read syscall
// instead of one for the header and one for the payload.
const connReadBuffer = 64 << 10

// The MsgDo codec (DESIGN.md §13): every pipelined request is a Request and
// every answer a Reply. After the frame header, which carries the
// deadline, the trace parent and the version pin:
//
//	request: gather u8 · soft_ns u64 · split u32 · tensor
//	reply:   live u16 · total u16 · n u32 · winners i32×n · probs tensor ·
//	         entropies (transport.EncodeFloats)
//
// split is the Policy's SplitPoint as an int32 (0 = SplitOff, -1 =
// SplitAuto, k+1 = SplitAt(k)). Precision follows the policy: a request
// under a split policy — for an Own request, the boundary its input enters
// at — and its reply carry their tensors at float64, because the split
// contract is bit-identity with the local forward; every other request and
// reply carries float32 (transport.EncodeTensor). Entropies are always
// float64: quantizing them would perturb the arg-min.

const (
	requestPrefixSize = 1 + 8 + 4 // gather, soft, split
	replyPrefixSize   = 2 + 2 + 4 // live, total, n
)

// wide reports whether p's frames carry float64 tensors.
func (p Policy) wide() bool { return p.Split != SplitOff }

func tensorBytes(t *tensor.Tensor, wide bool) int {
	if wide {
		return transport.Tensor64WireSize(t)
	}
	return transport.TensorWireSize(t)
}

func encodeTensorInto(buf []byte, t *tensor.Tensor, wide bool) {
	if wide {
		transport.EncodeTensor64Into(buf, t)
	} else {
		transport.EncodeTensorInto(buf, t)
	}
}

func decodeTensor(data []byte, wide bool, dst *tensor.Tensor) (*tensor.Tensor, int, error) {
	if wide {
		return transport.DecodeTensor64(data, dst)
	}
	return transport.DecodeTensor(data, dst)
}

// encodeRequest builds a MsgDo body: the policy and X in one buffer.
func encodeRequest(req Request) []byte {
	p := req.Policy
	out := make([]byte, requestPrefixSize+tensorBytes(req.X, p.wide()))
	out[0] = byte(p.Gather)
	binary.BigEndian.PutUint64(out[1:], uint64(max(p.Soft, 0)))
	binary.BigEndian.PutUint32(out[9:], uint32(int32(p.Split)))
	encodeTensorInto(out[requestPrefixSize:], req.X, p.wide())
	return out
}

// decodeRequest parses a MsgDo body. An Own request's X is decoded into dst
// (nil: a fresh tensor), which its owner may reuse once the forward pass has
// returned. Any other request's X is always fresh: the gather it feeds can
// return on quorum while the local forward still reads it.
func decodeRequest(body []byte, dst *tensor.Tensor) (Request, error) {
	if len(body) < requestPrefixSize {
		return Request{}, fmt.Errorf("cluster: request of %d bytes, need %d before the tensor", len(body), requestPrefixSize)
	}
	gather, soft := Gather(body[0]), binary.BigEndian.Uint64(body[1:])
	split := SplitPoint(int32(binary.BigEndian.Uint32(body[9:])))
	if gather > Own || soft > math.MaxInt64 || split < SplitAuto {
		return Request{}, fmt.Errorf("cluster: request gather rule %d, soft deadline %d ns, split point %d", gather, soft, split)
	}
	p := Policy{Gather: gather, Soft: time.Duration(soft), Split: split}
	if gather != Own {
		dst = nil
	}
	x, _, err := decodeTensor(body[requestPrefixSize:], p.wide(), dst)
	if err != nil {
		return Request{}, fmt.Errorf("cluster: request tensor: %w", err)
	}
	return Request{X: x, Policy: p}, nil
}

// encodeReply builds a MsgReply body in one buffer; wide is the precision of
// the request it answers.
func encodeReply(rep Reply, wide bool) []byte {
	n := len(rep.Winners)
	probs := replyPrefixSize + 4*n
	entropies := probs + tensorBytes(rep.Probs, wide)
	out := make([]byte, entropies+4+8*len(rep.Entropy))
	binary.BigEndian.PutUint16(out, uint16(rep.Live))
	binary.BigEndian.PutUint16(out[2:], uint16(rep.Total))
	binary.BigEndian.PutUint32(out[4:], uint32(n))
	for i, w := range rep.Winners {
		binary.BigEndian.PutUint32(out[replyPrefixSize+4*i:], uint32(int32(w)))
	}
	encodeTensorInto(out[probs:], rep.Probs, wide)
	transport.EncodeFloatsInto(out[entropies:], rep.Entropy)
	return out
}

// decodeReply parses a MsgReply body. The reply comes from another machine,
// so its shape is checked here, once, against what was asked: rows answers
// of classes probabilities (classes 0: any width — a gateway does not know
// the model's), one winner and one entropy per row. Everything downstream
// (the arg-min gate, the gateway's scatter) indexes by those dimensions
// without looking again.
func decodeReply(body []byte, wide bool, rows, classes int) (Reply, error) {
	if len(body) < replyPrefixSize {
		return Reply{}, fmt.Errorf("cluster: reply of %d bytes, need %d before the winners", len(body), replyPrefixSize)
	}
	// The count is checked against rows before it sizes anything.
	n := int(binary.BigEndian.Uint32(body[4:]))
	probs := replyPrefixSize + 4*n
	if n != rows || len(body) < probs {
		return Reply{}, fmt.Errorf("cluster: reply of %d winners in %d bytes, want %d", n, len(body), rows)
	}
	rep := Reply{Live: int(binary.BigEndian.Uint16(body)), Total: int(binary.BigEndian.Uint16(body[2:])), Winners: make([]int, n)}
	for i := range rep.Winners {
		rep.Winners[i] = int(int32(binary.BigEndian.Uint32(body[replyPrefixSize+4*i:])))
	}
	var used int
	var err error
	if rep.Probs, used, err = decodeTensor(body[probs:], wide, nil); err != nil {
		return Reply{}, fmt.Errorf("cluster: reply probs: %w", err)
	}
	if rep.Entropy, _, err = transport.DecodeFloats(body[probs+used:]); err != nil {
		return Reply{}, fmt.Errorf("cluster: reply entropies: %w", err)
	}
	if sh := rep.Probs.Shape; len(sh) != 2 || sh[0] != rows || (classes > 0 && sh[1] != classes) || len(rep.Entropy) != rows {
		return Reply{}, fmt.Errorf("cluster: reply shape %v with %d entropies, want %d rows of %d classes and %d entropies",
			sh, len(rep.Entropy), rows, classes, rows)
	}
	return rep, nil
}

// doWireBytes is the codec's one size function: the payload bytes of a
// request for rows×width inputs under p, pinned to a label of pin bytes,
// plus those of its rows×classes reply. Of the frame header only the pin
// counts (its u16 length and its bytes); the rest is the same for every
// request. The split planner prices a round trip with it.
func doWireBytes(p Policy, pin, rows, width, classes int) int {
	elem := 4
	if p.wide() {
		elem = 8
	}
	tensor := func(cols int) int { return 1 + 4*2 + elem*rows*cols }
	return 2 + pin + requestPrefixSize + tensor(width) +
		replyPrefixSize + 4*rows + tensor(classes) + 4 + 8*rows
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
