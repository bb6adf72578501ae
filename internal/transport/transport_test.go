package transport

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/teamnet/teamnet/internal/tensor"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello edge")
	if err := WriteFrame(&buf, 7, payload); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != FrameWireSize(len(payload)) {
		t.Fatalf("wire size %d, want %d", buf.Len(), FrameWireSize(len(payload)))
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: type=%d payload=%q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != 1 || len(got) != 0 {
		t.Fatal("empty frame round trip failed")
	}
}

func TestFrameMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, byte(i), []byte{byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i) || payload[0] != byte(i) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

func TestFrameTruncatedFails(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	// A forged header claiming a giant payload must be rejected before
	// allocation.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestTensorCodecRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	src := rng.Randn(3, 4)
	data := EncodeTensor(src)
	if len(data) != tensorWireSize(src) {
		t.Fatalf("encoded %d bytes, wire size says %d", len(data), tensorWireSize(src))
	}
	got, used, err := DecodeTensor(data)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(data) {
		t.Fatalf("consumed %d of %d", used, len(data))
	}
	// Float32 quantization: agreement to ~1e-6 relative.
	if !got.AllClose(src, 1e-5) {
		t.Fatal("tensor round trip lost precision beyond float32")
	}
	if !got.SameShape(src) {
		t.Fatalf("shape %v != %v", got.Shape, src.Shape)
	}
}

func TestTensorCodecScalarAndEmpty(t *testing.T) {
	scalar := tensor.FromSlice([]float64{42}, 1)
	got, _, err := DecodeTensor(EncodeTensor(scalar))
	if err != nil || got.At(0) != 42 {
		t.Fatalf("scalar round trip: %v %v", got, err)
	}
	empty := tensor.New(0, 5)
	got, _, err = DecodeTensor(EncodeTensor(empty))
	if err != nil || got.Size() != 0 || got.Shape[1] != 5 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

func TestTensorCodecTruncated(t *testing.T) {
	data := EncodeTensor(tensor.Ones(4, 4))
	for _, cut := range []int{0, 1, 3, 8, len(data) - 1} {
		if _, _, err := DecodeTensor(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	vs := []float64{0, -1.5, 3.14159265358979, 1e300}
	got, used, err := DecodeFloats(EncodeFloats(vs))
	if err != nil {
		t.Fatal(err)
	}
	if used != 4+8*len(vs) {
		t.Fatalf("used %d", used)
	}
	for i, v := range vs {
		if got[i] != v {
			t.Fatalf("float %d: %v != %v (must be exact float64)", i, got[i], v)
		}
	}
}

func TestPropFrameRoundTripAnyPayload(t *testing.T) {
	f := func(typ byte, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			return false
		}
		gotType, got, err := ReadFrame(&buf)
		return err == nil && gotType == typ && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeIntoDestination: a decoder handed a destination decodes into it —
// its storage reused when the capacity holds the tensor, grown when it does
// not — with exactly the shape and bits a fresh decode yields; a failed
// decode leaves it untouched.
func TestDecodeIntoDestination(t *testing.T) {
	src := tensor.NewRNG(3).Randn(3, 4)
	for _, codec := range []struct {
		name   string
		encode func(*tensor.Tensor) []byte
		decode func([]byte, ...*tensor.Tensor) (*tensor.Tensor, int, error)
	}{{"float32", EncodeTensor, DecodeTensor}, {"float64", EncodeTensor64, DecodeTensor64}} {
		data := codec.encode(src)
		want, _, err := codec.decode(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range []*tensor.Tensor{tensor.Full(-7, 2, 5, 3), tensor.Full(-7, 1, 2)} {
			storage := &dst.Data[0]
			roomy := cap(dst.Data) >= src.Size()
			got, used, err := codec.decode(data, dst)
			if err != nil || used != len(data) || got != dst {
				t.Fatalf("%s: decode into a dst returned %p (dst %p), %d bytes, err %v", codec.name, got, dst, used, err)
			}
			if !got.SameShape(want) || !reflect.DeepEqual(got.Data, want.Data) {
				t.Fatalf("%s: decoded into a dst as %v %v, fresh decode %v %v", codec.name, got.Shape, got.Data, want.Shape, want.Data)
			}
			if reused := &got.Data[0] == storage; reused != roomy {
				t.Fatalf("%s: storage reused = %v with capacity for the tensor = %v", codec.name, reused, roomy)
			}
		}
		dst := tensor.Full(-7, 2, 6)
		if _, _, err := codec.decode(data[:len(data)-1], dst); err == nil {
			t.Fatalf("%s: truncated tensor accepted", codec.name)
		}
		if !reflect.DeepEqual(dst, tensor.Full(-7, 2, 6)) {
			t.Fatalf("%s: a failed decode wrote into its dst: %v %v", codec.name, dst.Shape, dst.Data)
		}
	}
}
