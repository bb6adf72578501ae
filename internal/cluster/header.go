package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/teamnet/teamnet/internal/trace"
)

// The frame header (DESIGN.md §7). Every pipelined frame — MsgPredictMux,
// MsgFabricPredict, MsgSplitPredict and their replies — starts with one
// versioned header, sent as the frame prefix in the same write as the body:
//
//	request: hdr-version u8 · id u32 · budget_ns u64 · trace_id u64 ·
//	         span_id u64 · pin length u16 · pin bytes
//	reply:   hdr-version u8 · id u32 · compute_ns u64
//
// muxClient.roundTrip fills a request header from its ctx (deadline →
// budget, trace.FromContext → trace) and Node.serveConn parses it
// back into a ctx, so what a node receives is what it sends on. Everything a
// frame says about the request rather than the tensor lives here and only
// here; the four functions below are the only code that reads or writes it.

// headerVersion is the layout above. A node that reads any other value
// refuses the stream: all nodes of a fleet run one build (DESIGN.md §8).
const headerVersion = 1

const (
	requestHeaderFixed = 1 + 4 + 8 + 8 + 8 + 2
	replyHeaderSize    = 1 + 4 + 8
	maxVersionPin      = 0xFFFF
)

// requestHeader is what a pipelined request says about itself.
type requestHeader struct {
	id     uint32        // matches the reply to its waiter
	budget time.Duration // what is left of the caller's deadline; 0 = none
	trace  trace.Context // span the server's work is parented under; zero = untraced
	pin    string        // model version the server must be serving; "" = any
}

// replyHeader is what a pipelined reply says about itself.
type replyHeader struct {
	id      uint32
	compute time.Duration // the server's forward-pass time; 0 = none ran
}

// appendRequestHeader appends h's wire form to dst. len(h.pin) must not
// exceed maxVersionPin (roundTrip checks).
func appendRequestHeader(dst []byte, h requestHeader) []byte {
	dst = append(dst, headerVersion)
	dst = binary.BigEndian.AppendUint32(dst, h.id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.budget))
	dst = binary.BigEndian.AppendUint64(dst, h.trace.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, h.trace.SpanID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.pin)))
	return append(dst, h.pin...)
}

// decodeRequestHeader splits a request payload into its header and body.
func decodeRequestHeader(payload []byte) (h requestHeader, body []byte, err error) {
	h.id, h.budget, err = decodeHeaderStart(payload, requestHeaderFixed)
	if err != nil {
		return requestHeader{}, nil, err
	}
	h.trace = trace.Context{TraceID: binary.BigEndian.Uint64(payload[13:]), SpanID: binary.BigEndian.Uint64(payload[21:])}
	end := requestHeaderFixed + int(binary.BigEndian.Uint16(payload[29:]))
	if len(payload) < end {
		return requestHeader{}, nil, fmt.Errorf("cluster: frame header version pin ends at byte %d of a %d-byte frame", end, len(payload))
	}
	h.pin = string(payload[requestHeaderFixed:end])
	return h, payload[end:], nil
}

// appendReplyHeader appends h's wire form to dst.
func appendReplyHeader(dst []byte, h replyHeader) []byte {
	dst = append(dst, headerVersion)
	dst = binary.BigEndian.AppendUint32(dst, h.id)
	return binary.BigEndian.AppendUint64(dst, uint64(h.compute))
}

// decodeReplyHeader splits a reply payload into its header and body.
func decodeReplyHeader(payload []byte) (h replyHeader, body []byte, err error) {
	h.id, h.compute, err = decodeHeaderStart(payload, replyHeaderSize)
	if err != nil {
		return replyHeader{}, nil, err
	}
	return h, payload[replyHeaderSize:], nil
}

// decodeHeaderStart parses what both headers start with — hdr-version, id,
// a duration in ns — and gives the verdict on a payload that cannot be a
// size-byte header of this build: another hdr-version, too short, or a
// duration no clock produces.
func decodeHeaderStart(payload []byte, size int) (id uint32, d time.Duration, err error) {
	if len(payload) > 0 && payload[0] != headerVersion {
		return 0, 0, fmt.Errorf("cluster: frame header version %d, this build speaks %d (all nodes of a fleet run one build)", payload[0], headerVersion)
	}
	if len(payload) < size {
		return 0, 0, fmt.Errorf("cluster: frame of %d bytes, need a %d-byte header", len(payload), size)
	}
	ns := binary.BigEndian.Uint64(payload[5:])
	if ns > math.MaxInt64 {
		return 0, 0, fmt.Errorf("cluster: frame header duration %d ns out of range", ns)
	}
	return binary.BigEndian.Uint32(payload[1:]), time.Duration(ns), nil
}
