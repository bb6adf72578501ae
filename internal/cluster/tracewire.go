package cluster

import (
	"encoding/binary"
	"time"

	"github.com/teamnet/teamnet/internal/trace"
)

// Trace context on the TeamNet socket protocol (DESIGN.md §7).
//
// The protocol's payloads are self-delimiting — DecodeTensor and
// DecodeFloats report how many bytes they consumed — so trace fields ride
// as a fixed-size *trailer* appended after the regular payload instead of a
// new envelope:
//
//	MsgPredictMux: id ‖ tensor ‖ "TNtc" ver(1) traceID(8) spanID(8)      (+21 B)
//	MsgResultMux:  id ‖ probs ‖ entropies ‖ "TNtm" ver(1) computeNanos(8) (+13 B)
//
// Tracing is a per-master setting, so both shapes of request are live: a
// master without a tracer sends no trailer and the worker records no span,
// but still appends its timing — the master's rtt/compute histograms need
// it either way. The magics make a missing trailer distinguishable from a
// short one, and the version byte leaves room to grow the trailer without
// another frame type. TestWireBytesUnchanged pins the bytes.

// Trailer magics. Four bytes each, chosen to never collide with tensor
// data by position (they sit after a self-delimited payload, so collision
// is impossible; the magic guards against *truncated* trailers instead).
var (
	traceCtxMagic    = [4]byte{'T', 'N', 't', 'c'}
	computeTimeMagic = [4]byte{'T', 'N', 't', 'm'}
)

const traceTrailerVersion = 1

// appendTraceContext appends the predict-trailer carrying ctx. A zero
// context appends nothing: an untraced request is the bare tensor.
func appendTraceContext(payload []byte, ctx trace.Context) []byte {
	if !ctx.Valid() {
		return payload
	}
	var tr [21]byte
	copy(tr[:4], traceCtxMagic[:])
	tr[4] = traceTrailerVersion
	binary.BigEndian.PutUint64(tr[5:], ctx.TraceID)
	binary.BigEndian.PutUint64(tr[13:], ctx.SpanID)
	return append(payload, tr[:]...)
}

// extractTraceContext parses the predict-trailer from the bytes remaining
// after the tensor. Missing or malformed trailers yield the zero context —
// the request is simply untraced.
func extractTraceContext(rest []byte) trace.Context {
	if len(rest) < 21 || [4]byte(rest[:4]) != traceCtxMagic || rest[4] != traceTrailerVersion {
		return trace.Context{}
	}
	return trace.Context{
		TraceID: binary.BigEndian.Uint64(rest[5:13]),
		SpanID:  binary.BigEndian.Uint64(rest[13:21]),
	}
}

// appendComputeTime appends the result-trailer carrying the worker's
// measured expert compute duration.
func appendComputeTime(payload []byte, d time.Duration) []byte {
	var tr [13]byte
	copy(tr[:4], computeTimeMagic[:])
	tr[4] = traceTrailerVersion
	binary.BigEndian.PutUint64(tr[5:], uint64(d))
	return append(payload, tr[:]...)
}

// extractComputeTime parses the result-trailer from the bytes remaining
// after the entropies. ok is false when the trailer is missing or malformed.
func extractComputeTime(rest []byte) (time.Duration, bool) {
	if len(rest) < 13 || [4]byte(rest[:4]) != computeTimeMagic || rest[4] != traceTrailerVersion {
		return 0, false
	}
	return time.Duration(binary.BigEndian.Uint64(rest[5:13])), true
}
