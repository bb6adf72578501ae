package cluster

// Fabric wire codec: the gateway→master inference frames. A fabric request
// is mux-pipelined like a peer predict, but it asks for the *combined*
// ensemble answer — the master runs the whole broadcast/gather/arg-min
// pipeline and replies with probabilities, winners and the live/total
// quorum, which is exactly what the serve gateway's Backend contract needs
// (the gateway recomputes entropies itself when batching).
//
// Request body (after the frame header, which carries the gateway's
// remaining deadline as the budget the master bounds its gather with):
//
//	gather  u8   — the Policy's gather rule (Strict, BestEffort, Quorum)
//	soft    u64  — the Policy's quorum soft deadline, ns (0 = none)
//	tensor  ...  — transport.EncodeTensor(x)
//
// Reply body (after the frame header):
//
//	live    u16  — nodes that answered
//	total   u16  — ensemble size (live < total ⇒ degraded)
//	n       u32  — row count
//	winners i32×n
//	tensor  ...  — combined probabilities
//
// (A Reply's Entropy does not cross the fabric: the gateway recomputes it.)

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/teamnet/teamnet/internal/transport"
)

// fabricPrefixSize is gather + soft.
const fabricPrefixSize = 1 + 8

// encodeFabricRequest builds a fabric request body. A split policy does not
// cross the fabric: the gateway has no expert to run a head on.
func encodeFabricRequest(req Request) []byte {
	tb := transport.EncodeTensor(req.X)
	out := make([]byte, fabricPrefixSize, fabricPrefixSize+len(tb))
	out[0] = byte(req.Policy.Gather)
	binary.BigEndian.PutUint64(out[1:9], uint64(max(req.Policy.Soft, 0)))
	return append(out, tb...)
}

// decodeFabricRequest parses a fabric request body.
func decodeFabricRequest(body []byte) (Request, error) {
	if len(body) < fabricPrefixSize {
		return Request{}, fmt.Errorf("cluster: fabric request %d bytes, need %d before the tensor", len(body), fabricPrefixSize)
	}
	gather, soft := Gather(body[0]), binary.BigEndian.Uint64(body[1:9])
	if gather > Quorum || soft > math.MaxInt64 {
		return Request{}, fmt.Errorf("cluster: fabric request gather rule %d, soft deadline %d ns", gather, soft)
	}
	x, _, err := transport.DecodeTensor(body[fabricPrefixSize:])
	if err != nil {
		return Request{}, fmt.Errorf("cluster: fabric request tensor: %w", err)
	}
	return Request{X: x, Policy: Policy{Gather: gather, Soft: time.Duration(soft)}}, nil
}

// encodeFabricResult builds a fabric reply body.
func encodeFabricResult(rep Reply) []byte {
	tb := transport.EncodeTensor(rep.Probs)
	out := make([]byte, 0, 2+2+4+4*len(rep.Winners)+len(tb))
	out = binary.BigEndian.AppendUint16(out, uint16(rep.Live))
	out = binary.BigEndian.AppendUint16(out, uint16(rep.Total))
	out = binary.BigEndian.AppendUint32(out, uint32(len(rep.Winners)))
	for _, w := range rep.Winners {
		out = binary.BigEndian.AppendUint32(out, uint32(int32(w)))
	}
	return append(out, tb...)
}

// decodeFabricResult parses a fabric reply body and checks it against the
// rows that were sent: the gateway scatters probs row by row to its callers,
// so a reply of any other shape must die here, not there.
func decodeFabricResult(body []byte, rows int) (Reply, error) {
	if len(body) < 8 {
		return Reply{}, fmt.Errorf("cluster: fabric result %d bytes", len(body))
	}
	rep := Reply{Live: int(binary.BigEndian.Uint16(body[0:2])), Total: int(binary.BigEndian.Uint16(body[2:4]))}
	n := int(binary.BigEndian.Uint32(body[4:8]))
	rest := body[8:]
	if n < 0 || len(rest) < 4*n {
		return Reply{}, fmt.Errorf("cluster: fabric result %d winners, %d bytes left", n, len(rest))
	}
	rep.Winners = make([]int, n)
	for i := range rep.Winners {
		rep.Winners[i] = int(int32(binary.BigEndian.Uint32(rest[4*i:])))
	}
	var err error
	rep.Probs, _, err = transport.DecodeTensor(rest[4*n:])
	if err != nil {
		return Reply{}, fmt.Errorf("cluster: fabric result probs: %w", err)
	}
	if len(rep.Probs.Shape) != 2 || rep.Probs.Shape[0] != rows || n != rows {
		return Reply{}, fmt.Errorf("cluster: fabric result shape %v with %d winners, want %d rows", rep.Probs.Shape, n, rows)
	}
	return rep, nil
}
