package transport

import (
	"bytes"
	"testing"

	"github.com/teamnet/teamnet/internal/tensor"
)

// The fuzz targets in fuzz_test.go only execute their seed corpora when the
// fuzz engine runs them (plain `go test` with no -run filter, or -fuzz).
// These table tests wire the same seeds into the ordinary test set so
// `go test -short -run Test` — the verify target's fast path — still
// exercises every decoder on every historical crash seed.

func decodeTensorSeeds() [][]byte {
	return [][]byte{
		{},
		{0},
		{1, 0, 0, 0, 4},
		{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		// Shape-product overflow: dims wrap int64 past the size guard.
		{4, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0},
		{3, 0, 64, 0, 0, 0, 64, 0, 0, 0, 64, 0, 0},
		{1, 0xFF, 0xFF, 0xFF, 0xFF},
		EncodeTensor(tensor.NewRNG(1).Randn(2, 3)),
	}
}

// EncodeTensor64 serializes t at full float64 precision: the encoder the
// full-precision decoder's seeds and round trips are built with.
func EncodeTensor64(t *tensor.Tensor) []byte {
	buf := make([]byte, Tensor64WireSize(t))
	return buf[:EncodeTensor64Into(buf, t)]
}

// EncodeFloats serializes a float64 slice at full precision.
func EncodeFloats(vs []float64) []byte {
	buf := make([]byte, 4+8*len(vs))
	EncodeFloatsInto(buf, vs)
	return buf
}

func decodeTensor64Seeds() [][]byte {
	return [][]byte{
		{},
		{0},
		{1, 0, 0, 0, 4},
		{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		// Shape-product overflow frames from the float32 decoder's history;
		// the float64 guard (MaxFrameSize/8) must reject them identically.
		{4, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0},
		{3, 0, 64, 0, 0, 0, 64, 0, 0, 0, 64, 0, 0},
		{1, 0xFF, 0xFF, 0xFF, 0xFF},
		EncodeTensor64(tensor.NewRNG(1).Randn(2, 3)),
	}
}

func decodeFloatsSeeds() [][]byte {
	return [][]byte{
		{},
		{0, 0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0xFF},
		EncodeFloats([]float64{1.5, -2.5}),
	}
}

func readFrameSeeds() [][]byte {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, 3, []byte("payload"))
	return [][]byte{
		buf.Bytes(),
		{},
		{0, 0, 0, 1, 9},
		{0xFF, 0xFF, 0xFF, 0xFF, 0},
		giantClaimFrame(),
	}
}

// giantClaimFrame is a header claiming the full 64 MiB followed by ten
// bytes: what a confused or hostile peer can send for free.
func giantClaimFrame() []byte {
	return append([]byte{0x04, 0, 0, 0, 9}, make([]byte, 10)...)
}

func TestDecodeTensorSeedCorpus(t *testing.T) {
	for i, data := range decodeTensorSeeds() {
		got, used, err := DecodeTensor(data)
		if err != nil {
			continue
		}
		if used > len(data) {
			t.Fatalf("seed %d: consumed %d of %d bytes", i, used, len(data))
		}
		if !bytes.Equal(EncodeTensor(got), data[:used]) {
			t.Fatalf("seed %d: decode/encode not a retraction", i)
		}
	}
}

// TestDecodeTensorRejectsOverflowShapes pins the shape-product overflow
// fix: each frame's dims wrap (or exceed) the element-count guard, and the
// decoder must reject them instead of building a tensor whose Shape product
// disagrees with len(Data).
func TestDecodeTensorRejectsOverflowShapes(t *testing.T) {
	frames := [][]byte{
		{4, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0}, // 65536^4 ≡ 0 mod 2^64
		{3, 0, 64, 0, 0, 0, 64, 0, 0, 0, 64, 0, 0},          // (2^22)^3 ≡ 0 mod 2^64
		{1, 0xFF, 0xFF, 0xFF, 0xFF},                         // single dim 2^32-1
	}
	for i, data := range frames {
		if _, _, err := DecodeTensor(data); err == nil {
			t.Fatalf("frame %d: overflowing shape accepted", i)
		}
	}
}

func TestDecodeTensor64SeedCorpus(t *testing.T) {
	for i, data := range decodeTensor64Seeds() {
		got, used, err := DecodeTensor64(data)
		if err != nil {
			continue
		}
		if used > len(data) {
			t.Fatalf("seed %d: consumed %d of %d bytes", i, used, len(data))
		}
		if !bytes.Equal(EncodeTensor64(got), data[:used]) {
			t.Fatalf("seed %d: tensor64 decode/encode not a retraction", i)
		}
	}
}

// TestDecodeTensor64RoundTripExact pins full precision: the activation
// codec must reproduce float64 payloads bit for bit (the property the split
// contract's bit-identity rests on).
func TestDecodeTensor64RoundTripExact(t *testing.T) {
	want := tensor.NewRNG(9).Randn(3, 7)
	got, used, err := DecodeTensor64(EncodeTensor64(want))
	if err != nil {
		t.Fatal(err)
	}
	if used != Tensor64WireSize(want) {
		t.Fatalf("used %d != wire size %d", used, Tensor64WireSize(want))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestDecodeFloatsSeedCorpus(t *testing.T) {
	for i, data := range decodeFloatsSeeds() {
		vs, used, err := DecodeFloats(data)
		if err != nil {
			continue
		}
		if used > len(data) {
			t.Fatalf("seed %d: consumed %d of %d bytes", i, used, len(data))
		}
		if !bytes.Equal(EncodeFloats(vs), data[:used]) {
			t.Fatalf("seed %d: floats decode/encode not a retraction", i)
		}
	}
}

func TestReadFrameSeedCorpus(t *testing.T) {
	for i, data := range readFrameSeeds() {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			continue
		}
		var out bytes.Buffer
		if werr := WriteFrame(&out, typ, payload); werr != nil {
			t.Fatalf("seed %d: re-encode of accepted frame failed: %v", i, werr)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("seed %d: frame decode/encode not a retraction", i)
		}
	}
}
