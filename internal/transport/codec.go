package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Tensor wire encoding: 1-byte rank, rank × 4-byte big-endian dims, then
// float32 data. Float32 matches the paper's deployed TensorFlow models and
// halves edge-network bytes relative to the float64 in-memory representation
// — the same trade the authors get from TF's wire format.

// EncodeTensor serializes t into a fresh byte slice.
func EncodeTensor(t *tensor.Tensor) []byte {
	buf := make([]byte, tensorWireSize(t))
	n := EncodeTensorInto(buf, t)
	return buf[:n]
}

// EncodeTensorInto writes t into buf (which must be large enough) and
// returns the encoded length.
func EncodeTensorInto(buf []byte, t *tensor.Tensor) int {
	if len(t.Shape) > 255 {
		panic("transport: tensor rank exceeds 255")
	}
	buf[0] = byte(len(t.Shape))
	off := 1
	for _, d := range t.Shape {
		binary.BigEndian.PutUint32(buf[off:], uint32(d))
		off += 4
	}
	for _, v := range t.Data {
		binary.BigEndian.PutUint32(buf[off:], math.Float32bits(float32(v)))
		off += 4
	}
	return off
}

// DecodeTensor parses a tensor from data, returning the tensor and the
// number of bytes consumed.
func DecodeTensor(data []byte) (*tensor.Tensor, int, error) {
	if len(data) < 1 {
		return nil, 0, fmt.Errorf("transport: tensor truncated at rank byte")
	}
	rank := int(data[0])
	off := 1
	if len(data) < off+4*rank {
		return nil, 0, fmt.Errorf("transport: tensor truncated in shape")
	}
	// The element count is the product of attacker-controlled dims, so both
	// each dim and the running product are guarded: without the per-step
	// check, four dims of 2^16 wrap the product past the size guard to 0 and
	// yield a tensor whose Shape product disagrees with len(Data).
	const maxElems = MaxFrameSize / 4
	shape := make([]int, rank)
	size := 1
	for i := range shape {
		d := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if d > maxElems {
			return nil, 0, fmt.Errorf("transport: tensor dim %d implausible", d)
		}
		shape[i] = d
		size *= d
		// Each factor is ≤ 2^24, so the unwrapped product stays below 2^48
		// and this check sees the true value before it can overflow int64.
		if size > maxElems {
			return nil, 0, fmt.Errorf("transport: tensor size %d implausible", size)
		}
	}
	if len(data) < off+4*size {
		return nil, 0, fmt.Errorf("transport: tensor truncated in data (want %d floats)", size)
	}
	t := tensor.New(shape...)
	for i := 0; i < size; i++ {
		t.Data[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(data[off:])))
		off += 4
	}
	return t, off, nil
}

func tensorWireSize(t *tensor.Tensor) int {
	return 1 + 4*len(t.Shape) + 4*t.Size()
}

// EncodeFloats serializes a float64 slice (full precision — used for
// control values like entropies where quantization would perturb arg-mins).
func EncodeFloats(vs []float64) []byte {
	buf := make([]byte, 4+8*len(vs))
	binary.BigEndian.PutUint32(buf, uint32(len(vs)))
	for i, v := range vs {
		binary.BigEndian.PutUint64(buf[4+8*i:], math.Float64bits(v))
	}
	return buf
}

// DecodeFloats parses a float64 slice, returning the values and bytes used.
func DecodeFloats(data []byte) ([]float64, int, error) {
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("transport: floats truncated at count")
	}
	n := int(binary.BigEndian.Uint32(data))
	if n < 0 || n > MaxFrameSize/8 {
		return nil, 0, fmt.Errorf("transport: float count %d implausible", n)
	}
	if len(data) < 4+8*n {
		return nil, 0, fmt.Errorf("transport: floats truncated (want %d)", n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(data[4+8*i:]))
	}
	return out, 4 + 8*n, nil
}
