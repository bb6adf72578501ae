package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// Partial-offload wire frames (DESIGN.md §13). A MsgSplitPredict payload
// carries the model version the head was computed against, the split
// index, and the intermediate activation at full float64 precision; the
// peer finishes the tail [split, Steps) from its atomic snapshot pointer
// and answers MsgSplitResult with full-precision probabilities +
// entropies. Both directions avoid the query path's float32 quantization
// because the split contract promises the distributed answer is
// bit-identical to the full local forward.
//
// Version mismatches are a first-class outcome, not a generic error: a
// mid-rollout fleet has heads and tails from different model versions for
// a few seconds, and executing a tail against the wrong weights would
// produce a confidently wrong answer. The server refuses with a typed,
// wire-recognizable error and the caller degrades to whole-query offload
// (which carries the raw input, valid against any version).

// ErrSplitVersionMismatch reports that the serving peer's model version
// differs from the version the split head was computed against.
var ErrSplitVersionMismatch = errors.New("cluster: split model version mismatch")

// splitVersionMismatchPrefix is the wire text of a version refusal; the
// client maps it back to ErrSplitVersionMismatch so callers can branch on
// errors.Is across the network boundary.
const splitVersionMismatchPrefix = "split version mismatch: "

// splitErrorFromText rehydrates a worker error string into a typed error.
func splitErrorFromText(text string) error {
	if strings.HasPrefix(text, splitVersionMismatchPrefix) {
		return fmt.Errorf("%w: %s", ErrSplitVersionMismatch, strings.TrimPrefix(text, splitVersionMismatchPrefix))
	}
	return fmt.Errorf("worker error: %s", text)
}

// SplitRequest is a partial-offload request: finish X (the activation at
// boundary Split, batch rows) from step Split onward, provided the served
// model version equals Version.
type SplitRequest struct {
	Version string
	Split   int
	X       *tensor.Tensor
}

// EncodeSplitRequest serializes r: u16 version length + version bytes, u32
// split index, then the full-precision activation tensor.
func EncodeSplitRequest(r SplitRequest) []byte {
	if len(r.Version) > 0xFFFF {
		panic("cluster: split version label exceeds 65535 bytes")
	}
	act := transport.EncodeTensor64(r.X)
	out := make([]byte, 0, 2+len(r.Version)+4+len(act))
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(r.Version)))
	out = append(out, hdr[:]...)
	out = append(out, r.Version...)
	var split [4]byte
	binary.BigEndian.PutUint32(split[:], uint32(r.Split))
	out = append(out, split[:]...)
	return append(out, act...)
}

// DecodeSplitRequest parses a split request, returning the bytes consumed
// (the optional trace trailer rides after them).
func DecodeSplitRequest(payload []byte) (SplitRequest, int, error) {
	if len(payload) < 2 {
		return SplitRequest{}, 0, fmt.Errorf("cluster: split request truncated at version length")
	}
	vlen := int(binary.BigEndian.Uint16(payload))
	off := 2
	if len(payload) < off+vlen+4 {
		return SplitRequest{}, 0, fmt.Errorf("cluster: split request truncated in header")
	}
	version := string(payload[off : off+vlen])
	off += vlen
	split := int(binary.BigEndian.Uint32(payload[off:]))
	off += 4
	x, used, err := transport.DecodeTensor64(payload[off:])
	if err != nil {
		return SplitRequest{}, 0, fmt.Errorf("cluster: split request activation: %w", err)
	}
	return SplitRequest{Version: version, Split: split, X: x}, off + used, nil
}

// encodeSplitResult serializes a full-precision result: float64 probs
// tensor + float64 entropies.
func encodeSplitResult(r PredictResult) []byte {
	probs := transport.EncodeTensor64(r.Probs)
	ent := transport.EncodeFloats(r.Entropy)
	out := make([]byte, 0, len(probs)+len(ent))
	out = append(out, probs...)
	return append(out, ent...)
}

// decodeSplitResultRest parses a split result and returns the trailing
// bytes carrying the compute-timing trailer; the shape is checked against
// what was asked, like decodeResultRest.
func decodeSplitResultRest(payload []byte, rows, classes int) (PredictResult, []byte, error) {
	probs, used, err := transport.DecodeTensor64(payload)
	if err != nil {
		return PredictResult{}, nil, fmt.Errorf("cluster: decode split result probs: %w", err)
	}
	ent, entUsed, err := transport.DecodeFloats(payload[used:])
	if err != nil {
		return PredictResult{}, nil, fmt.Errorf("cluster: decode split result entropy: %w", err)
	}
	if err := checkResultShape(probs, len(ent), rows, classes); err != nil {
		return PredictResult{}, nil, err
	}
	return PredictResult{Probs: probs, Entropy: ent}, payload[used+entUsed:], nil
}

// SplitRequestWireBytes reports the on-wire payload size of a split
// request shipping a batch×width activation — the request half of the
// planner's link cost model.
func SplitRequestWireBytes(batch, width, versionLen int) int {
	return 2 + versionLen + 4 + (1 + 4*2 + 8*batch*width)
}

// SplitResultWireBytes reports the on-wire payload size of a split result
// for a batch — the response half of the planner's link cost model.
func SplitResultWireBytes(batch, classes int) int {
	probs := 1 + 4*2 + 8*batch*classes
	ent := 4 + 8*batch
	return probs + ent
}

// runSplitBody executes one split request against a served snapshot: the
// shared serving body behind MsgSplitPredict on both the worker and the
// master's fabric listener. It returns the encoded MsgSplitResult payload
// (with the compute-timing trailer appended) or an error text for
// MsgErrorMux; a version refusal uses the recognizable mismatch prefix.
func runSplitBody(snap *nn.Snapshot, servedVersion string, body []byte, tracer *tracerRef, hists *metrics.HistogramSet) (result []byte, errText string) {
	req, used, err := DecodeSplitRequest(body)
	if err != nil {
		return nil, err.Error()
	}
	if req.Version != servedVersion {
		return nil, fmt.Sprintf("%sserving %q, head computed against %q",
			splitVersionMismatchPrefix, servedVersion, req.Version)
	}
	if req.Split < 0 || req.Split > snap.Steps() {
		return nil, fmt.Sprintf("split index %d outside 0..%d", req.Split, snap.Steps())
	}
	ctx := extractTraceContext(body[used:])
	start := time.Now()
	res, perr := runSplitTail(snap, req.X, req.Split)
	compute := time.Since(start)
	hists.Observe("split.predict", compute)
	if ctx.Valid() {
		status := ""
		if perr != nil {
			status = trace.StatusError
		}
		tracer.get().Record(ctx, "worker.split", "", status, start, compute)
	}
	if perr != nil {
		return nil, perr.Error()
	}
	return appendComputeTime(encodeSplitResult(res), compute), ""
}

// runSplitTail finishes the tail and produces probabilities + entropies
// with exactly the operations PredictWithEntropy applies after its forward
// pass, so a remote tail is bit-identical to finishing locally. A panic
// inside the snapshot (activation shape not matching the boundary) is
// recovered into an error so the node keeps serving.
func runSplitTail(snap *nn.Snapshot, x *tensor.Tensor, split int) (res PredictResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: split predict panic: %v", r)
		}
	}()
	t := snap.ForwardRange(x, split, snap.Steps())
	tensor.SoftmaxRowsInto(t.Data, t.Data, t.Shape[0], t.Shape[1])
	ent := tensor.EntropyRows(t)
	return PredictResult{Probs: t, Entropy: ent.Data}, nil
}
