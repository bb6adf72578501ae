package transport

import (
	"encoding/binary"
	"math"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Full-precision tensor wire encoding: 1-byte rank, rank × 4-byte
// big-endian dims, then float64 data. The float32 encoding (codec.go) is
// right for query inputs — it matches the deployed models and halves edge
// bytes — but partial offload ships *intermediate activations*, and the
// split contract promises the head-local+tail-remote answer is bit-identical
// to the full local forward. Quantizing the activation (or the returned
// probabilities) would break that equality, so split frames pay the 2×
// bytes for exactness; the planner's cost model charges them accordingly.

// EncodeTensor64 serializes t at full float64 precision.
func EncodeTensor64(t *tensor.Tensor) []byte {
	if len(t.Shape) > 255 {
		panic("transport: tensor rank exceeds 255")
	}
	buf := make([]byte, Tensor64WireSize(t))
	buf[0] = byte(len(t.Shape))
	off := 1
	for _, d := range t.Shape {
		binary.BigEndian.PutUint32(buf[off:], uint32(d))
		off += 4
	}
	for _, v := range t.Data {
		binary.BigEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	return buf[:off]
}

// DecodeTensor64 parses a full-precision tensor from data, returning the
// tensor and the number of bytes consumed; dst is DecodeTensor's optional
// destination, with the same ownership rule.
func DecodeTensor64(data []byte, dst ...*tensor.Tensor) (*tensor.Tensor, int, error) {
	t, off, err := decodeShape(data, 8, "tensor64", dst)
	if err != nil {
		return nil, 0, err
	}
	for i := range t.Data {
		t.Data[i] = math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
		off += 8
	}
	return t, off, nil
}

// Tensor64WireSize reports how many bytes t occupies in the full-precision
// encoding — the input to the split planner's link cost model.
func Tensor64WireSize(t *tensor.Tensor) int {
	return 1 + 4*len(t.Shape) + 8*t.Size()
}
