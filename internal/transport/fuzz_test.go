package transport

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Fuzz targets for the wire codecs: decoders face bytes from the network
// and must never panic or over-allocate, whatever arrives. `go test` runs
// the seed corpus; `go test -fuzz` explores further.

func FuzzDecodeTensor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 4})
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(EncodeTensor(tensor.NewRNG(1).Randn(2, 3)))
	// Shape-product overflow frames: dims whose product wraps int64 past the
	// size guard (4 × 2^16 → 2^64 ≡ 0; 3 × 2^22 → 2^66 ≡ 0) and a single
	// implausible dim at the uint32 ceiling.
	f.Add([]byte{4, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{3, 0, 64, 0, 0, 0, 64, 0, 0, 0, 64, 0, 0})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, used, err := DecodeTensor(data)
		if err != nil {
			return
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		// A decoded tensor's shape product must agree with its data length —
		// the invariant the overflow frames above used to break.
		elems := 1
		for _, d := range got.Shape {
			elems *= d
		}
		if elems != len(got.Data) {
			t.Fatalf("shape product %d != data length %d", elems, len(got.Data))
		}
		// A successful decode must re-encode to the same bytes it consumed.
		if !bytes.Equal(EncodeTensor(got), data[:used]) {
			t.Fatal("decode/encode not a retraction")
		}
		sameIntoStaleDst(t, got, data, DecodeTensor)
	})
}

func FuzzDecodeTensor64(f *testing.F) {
	for _, seed := range decodeTensor64Seeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, used, err := DecodeTensor64(data)
		if err != nil {
			return
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		elems := 1
		for _, d := range got.Shape {
			elems *= d
		}
		if elems != len(got.Data) {
			t.Fatalf("shape product %d != data length %d", elems, len(got.Data))
		}
		if !bytes.Equal(EncodeTensor64(got), data[:used]) {
			t.Fatal("tensor64 decode/encode not a retraction")
		}
		sameIntoStaleDst(t, got, data, DecodeTensor64)
	})
}

// sameIntoStaleDst checks that decoding data into a used destination — a
// stale shape of another rank, stale values — yields the bits a fresh decode
// did.
func sameIntoStaleDst(t *testing.T, fresh *tensor.Tensor, data []byte, decode func([]byte, ...*tensor.Tensor) (*tensor.Tensor, int, error)) {
	t.Helper()
	got, _, err := decode(data, tensor.Full(-7, 3, 1, 2))
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if err != nil || !got.SameShape(fresh) || !slices.EqualFunc(got.Data, fresh.Data, sameBits) {
		t.Fatalf("decode into a used dst gave %v (err %v), a fresh decode %v", got, err, fresh)
	}
}

func FuzzDecodeFloats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(EncodeFloats([]float64{1.5, -2.5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, used, err := DecodeFloats(data)
		if err != nil {
			return
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		if !bytes.Equal(EncodeFloats(vs), data[:used]) {
			t.Fatal("floats decode/encode not a retraction")
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, 3, []byte("payload"))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 9})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Add(giantClaimFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if werr := WriteFrame(&out, typ, payload); werr != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", werr)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("frame decode/encode not a retraction")
		}
	})
}
