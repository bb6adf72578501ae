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
	buf := make([]byte, TensorWireSize(t))
	n := EncodeTensorInto(buf, t)
	return buf[:n]
}

// EncodeTensorInto writes t into buf (which must be large enough) and
// returns the encoded length.
func EncodeTensorInto(buf []byte, t *tensor.Tensor) int {
	off := encodeShape(buf, t)
	for _, v := range t.Data {
		binary.BigEndian.PutUint32(buf[off:], math.Float32bits(float32(v)))
		off += 4
	}
	return off
}

// encodeShape writes the rank and dims both tensor encodings start with and
// returns the offset of the first value.
func encodeShape(buf []byte, t *tensor.Tensor) int {
	if len(t.Shape) > 255 {
		panic("transport: tensor rank exceeds 255")
	}
	buf[0] = byte(len(t.Shape))
	off := 1
	for _, d := range t.Shape {
		binary.BigEndian.PutUint32(buf[off:], uint32(d))
		off += 4
	}
	return off
}

// DecodeTensor parses a tensor from data, returning the tensor and the
// number of bytes consumed. The tensor never aliases data. With no dst (or a
// nil one) it is freshly allocated; otherwise it is dst, fully overwritten,
// its Shape and Data storage reused where their capacity allows — the caller
// owns dst and decides when its values may be overwritten again. A failed
// decode leaves dst untouched.
func DecodeTensor(data []byte, dst ...*tensor.Tensor) (*tensor.Tensor, int, error) {
	t, off, err := decodeShape(data, 4, "tensor", dst)
	if err != nil {
		return nil, 0, err
	}
	for i := range t.Data {
		t.Data[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(data[off:])))
		off += 4
	}
	return t, off, nil
}

// decodeShape parses the rank and dims both tensor encodings start with,
// checks that data holds the elem-byte values they promise, and returns the
// tensor to decode them into (dst[0] when given, see DecodeTensor) and the
// offset of the first value. what names the encoding in errors.
func decodeShape(data []byte, elem int, what string, dst []*tensor.Tensor) (*tensor.Tensor, int, error) {
	if len(data) < 1 {
		return nil, 0, fmt.Errorf("transport: %s truncated at rank byte", what)
	}
	rank := int(data[0])
	off := 1
	if len(data) < off+4*rank {
		return nil, 0, fmt.Errorf("transport: %s truncated in shape", what)
	}
	// The element count is the product of attacker-controlled dims, so both
	// each dim and the running product are guarded: without the per-step
	// check, four dims of 2^16 wrap the product past the size guard to 0 and
	// yield a tensor whose Shape product disagrees with len(Data).
	maxElems := MaxFrameSize / elem
	size := 1
	for i := 0; i < rank; i++ {
		d := int(binary.BigEndian.Uint32(data[off+4*i:]))
		if d > maxElems {
			return nil, 0, fmt.Errorf("transport: %s dim %d implausible", what, d)
		}
		size *= d
		// Each factor is ≤ 2^24, so the unwrapped product stays below 2^48
		// and this check sees the true value before it can overflow int64.
		if size > maxElems {
			return nil, 0, fmt.Errorf("transport: %s size %d implausible", what, size)
		}
	}
	if len(data) < off+4*rank+elem*size {
		return nil, 0, fmt.Errorf("transport: %s truncated in data (want %d floats)", what, size)
	}
	t := &tensor.Tensor{}
	if len(dst) > 0 && dst[0] != nil {
		t = dst[0]
	}
	t.Shape = t.Shape[:0]
	for i := 0; i < rank; i++ {
		t.Shape = append(t.Shape, int(binary.BigEndian.Uint32(data[off:])))
		off += 4
	}
	if t.Data != nil && cap(t.Data) >= size {
		t.Data = t.Data[:size]
	} else {
		t.Data = make([]float64, size)
	}
	return t, off, nil
}

// TensorWireSize reports how many bytes t occupies in this encoding.
func TensorWireSize(t *tensor.Tensor) int {
	return 1 + 4*len(t.Shape) + 4*t.Size()
}

// EncodeFloatsInto writes vs into buf (which must hold 4+8·len(vs) bytes)
// and returns the encoded length.
func EncodeFloatsInto(buf []byte, vs []float64) int {
	binary.BigEndian.PutUint32(buf, uint32(len(vs)))
	for i, v := range vs {
		binary.BigEndian.PutUint64(buf[4+8*i:], math.Float64bits(v))
	}
	return 4 + 8*len(vs)
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
