package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Partial-offload wire frames (DESIGN.md §13). A MsgSplitPredict body
// carries the split index and the intermediate activation at full float64
// precision; the model version the head was computed against rides as the
// header's version pin. The peer finishes the tail [split, Steps) on the
// model that pin was checked against and answers MsgSplitResult with
// full-precision probabilities + entropies. Both directions avoid the query path's float32
// quantization because the split contract promises the distributed answer
// is bit-identical to the full local forward.
//
// Version mismatches are a first-class outcome, not a generic error: a
// mid-rollout fleet has heads and tails from different model versions for
// a few seconds, and executing a tail against the wrong weights would
// produce a confidently wrong answer. The server refuses with a typed,
// wire-recognizable error and the caller degrades to whole-query offload
// (which carries the raw input, valid against any version).

// ErrSplitVersionMismatch reports that the serving peer's model version
// differs from the version a request was pinned to (for a split request,
// the version its head was computed against).
var ErrSplitVersionMismatch = errors.New("cluster: split model version mismatch")

// splitVersionMismatchPrefix is the wire text of a version refusal; the
// client maps it back to ErrSplitVersionMismatch so callers can branch on
// errors.Is across the network boundary.
const splitVersionMismatchPrefix = "split version mismatch: "

// workerError rehydrates a MsgErrorMux text into an error, typed when the
// text is a version refusal.
func workerError(text string) error {
	if strings.HasPrefix(text, splitVersionMismatchPrefix) {
		return fmt.Errorf("%w: %s", ErrSplitVersionMismatch, strings.TrimPrefix(text, splitVersionMismatchPrefix))
	}
	return fmt.Errorf("worker error: %s", text)
}

// encodeSplitRequest serializes a split request body: u32 split index, then
// the full-precision activation at that boundary.
func encodeSplitRequest(split int, x *tensor.Tensor) []byte {
	act := transport.EncodeTensor64(x)
	out := make([]byte, 0, 4+len(act))
	out = binary.BigEndian.AppendUint32(out, uint32(split))
	return append(out, act...)
}

// decodeSplitRequest parses a split request body, the activation into dst
// (nil: a fresh tensor; see transport.DecodeTensor).
func decodeSplitRequest(body []byte, dst *tensor.Tensor) (split int, x *tensor.Tensor, err error) {
	if len(body) < 4 {
		return 0, nil, fmt.Errorf("cluster: split request truncated at split index")
	}
	x, _, err = transport.DecodeTensor64(body[4:], dst)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: split request activation: %w", err)
	}
	return int(binary.BigEndian.Uint32(body)), x, nil
}

// SplitRequestWireBytes reports the on-wire payload size of a split
// request shipping a batch×width activation — the request half of the
// planner's link cost model: the length-prefixed version pin (it rides in
// the frame header), the split index and the activation.
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

// serveSplit finishes one split request's tail on the served model — the one
// serveRequest checked the pin against. Split tails share the connection's
// handler window and write lock with query traffic.
func (n *Node) serveSplit(ctx context.Context, served *Model, body []byte) (byte, []byte, time.Duration) {
	n.master.metrics.Counter("requests.split").Inc()
	snap := served.Snapshot
	if snap == nil {
		return errorReply(errNoExpert)
	}
	in := inputs.Get().(*tensor.Tensor)
	defer releaseInput(in)
	at, x, err := decodeSplitRequest(body, in)
	if err != nil {
		return errorReply(err)
	}
	if at < 0 || at > snap.Steps() {
		return errorReply(fmt.Errorf("split index %d outside 0..%d", at, snap.Steps()))
	}
	res, compute, err := n.timeExpert(ctx, "split.predict", "worker.split", func() (PredictResult, error) {
		return runSplitTail(snap, x, at)
	})
	if err != nil {
		return errorReply(err)
	}
	return MsgSplitResult, encodeResult(res, transport.EncodeTensor64), compute
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
