package cluster

// Fabric wire codec: the gateway→master inference frames. A fabric request
// is mux-pipelined like a peer predict, but it asks for the *combined*
// ensemble answer — the master runs the whole broadcast/gather/arg-min
// pipeline and replies with probabilities, winners and the live/total
// quorum, which is exactly what the serve gateway's Backend contract needs
// (the gateway recomputes entropies itself when batching).
//
// Request payload (after the 4-byte mux id):
//
//	mode    u8   — 0 strict (InferContext), 1 quorum (InferQuorumContext)
//	soft    u64  — quorum soft deadline, ns (0 = none; strict ignores it)
//	budget  u64  — overall deadline, ns (0 = none); the server bounds its
//	               ctx with it so a gateway deadline propagates across the
//	               wire without clock sync
//	tensor  ...  — transport.EncodeTensor(x)
//
// Reply payload (after the mux id):
//
//	live    u16  — nodes that answered
//	total   u16  — ensemble size (live < total ⇒ degraded)
//	n       u32  — row count
//	winners i32×n
//	tensor  ...  — combined probabilities

import (
	"encoding/binary"
	"fmt"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Fabric request modes.
const (
	fabricModeStrict byte = 0
	fabricModeQuorum byte = 1
)

// fabricHeaderSize is mode + soft + budget.
const fabricHeaderSize = 1 + 8 + 8

// encodeFabricRequest builds a fabric request body (without the mux id).
func encodeFabricRequest(mode byte, softNs, budgetNs uint64, x *tensor.Tensor) []byte {
	tb := transport.EncodeTensor(x)
	out := make([]byte, fabricHeaderSize, fabricHeaderSize+len(tb))
	out[0] = mode
	binary.BigEndian.PutUint64(out[1:9], softNs)
	binary.BigEndian.PutUint64(out[9:17], budgetNs)
	return append(out, tb...)
}

// decodeFabricRequest parses a fabric request body.
func decodeFabricRequest(body []byte) (mode byte, softNs, budgetNs uint64, x *tensor.Tensor, err error) {
	if len(body) < fabricHeaderSize {
		return 0, 0, 0, nil, fmt.Errorf("cluster: fabric request %d bytes, need %d header", len(body), fabricHeaderSize)
	}
	mode = body[0]
	if mode != fabricModeStrict && mode != fabricModeQuorum {
		return 0, 0, 0, nil, fmt.Errorf("cluster: fabric request mode %d", mode)
	}
	softNs = binary.BigEndian.Uint64(body[1:9])
	budgetNs = binary.BigEndian.Uint64(body[9:17])
	x, _, err = transport.DecodeTensor(body[fabricHeaderSize:])
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("cluster: fabric request tensor: %w", err)
	}
	return mode, softNs, budgetNs, x, nil
}

// encodeFabricResult builds a fabric reply body (without the mux id).
func encodeFabricResult(probs *tensor.Tensor, winners []int, live, total int) []byte {
	tb := transport.EncodeTensor(probs)
	out := make([]byte, 0, 2+2+4+4*len(winners)+len(tb))
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(live))
	out = append(out, u16[:]...)
	binary.BigEndian.PutUint16(u16[:], uint16(total))
	out = append(out, u16[:]...)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(winners)))
	out = append(out, u32[:]...)
	for _, w := range winners {
		binary.BigEndian.PutUint32(u32[:], uint32(int32(w)))
		out = append(out, u32[:]...)
	}
	return append(out, tb...)
}

// decodeFabricResult parses a fabric reply body and checks it against the
// rows that were sent: the gateway scatters probs row by row to its callers,
// so a reply of any other shape must die here, not there.
func decodeFabricResult(body []byte, rows int) (probs *tensor.Tensor, winners []int, live, total int, err error) {
	if len(body) < 8 {
		return nil, nil, 0, 0, fmt.Errorf("cluster: fabric result %d bytes", len(body))
	}
	live = int(binary.BigEndian.Uint16(body[0:2]))
	total = int(binary.BigEndian.Uint16(body[2:4]))
	n := int(binary.BigEndian.Uint32(body[4:8]))
	rest := body[8:]
	if n < 0 || len(rest) < 4*n {
		return nil, nil, 0, 0, fmt.Errorf("cluster: fabric result %d winners, %d bytes left", n, len(rest))
	}
	winners = make([]int, n)
	for i := range winners {
		winners[i] = int(int32(binary.BigEndian.Uint32(rest[4*i:])))
	}
	probs, _, err = transport.DecodeTensor(rest[4*n:])
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("cluster: fabric result probs: %w", err)
	}
	if len(probs.Shape) != 2 || probs.Shape[0] != rows || n != rows {
		return nil, nil, 0, 0, fmt.Errorf("cluster: fabric result shape %v with %d winners, want %d rows", probs.Shape, n, rows)
	}
	return probs, winners, live, total, nil
}
