package cluster

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Fuzz targets for the split-frame codec: MsgSplitPredict and
// MsgSplitResult payloads arrive from the network, so the decoders must be
// total — any byte string either parses into a frame whose re-encoding is
// exactly the bytes consumed (retraction), or fails cleanly. The seed
// corpora run as ordinary tests on every `make verify`, the fuzz engines on
// demand via `go test -fuzz`.

// splitRequestSeeds covers the request grammar: valid bodies, every
// truncation point, and a tensor header that lies about its size. (The
// version pin left the body for the frame header: header_test.go.)
func splitRequestSeeds() [][]byte {
	rng := tensor.NewRNG(17)
	valid := encodeSplitRequest(3, rng.Randn(2, 5))
	return [][]byte{
		valid,
		encodeSplitRequest(0, rng.Randn(1, 1)),
		{},                   // empty
		{0x00, 0x00, 0x00},   // truncated inside the split index
		valid[:4],            // split index only
		valid[:len(valid)-1], // truncated inside the tensor
		{0, 0, 0, 3, 255},    // tensor rank 255 with no dims
		// tensor dims whose product overflows the element cap
		append([]byte{0, 0, 0, 0}, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
	}
}

// checkSplitRequestBytes is the invariant both the fuzz target and the seed
// corpus test enforce.
func checkSplitRequestBytes(t *testing.T, data []byte) {
	t.Helper()
	at, x, err := decodeSplitRequest(data, nil)
	if err != nil {
		return
	}
	size := 1
	for _, d := range x.Shape {
		size *= d
	}
	if size != len(x.Data) {
		t.Fatalf("shape %v inconsistent with %d elements", x.Shape, len(x.Data))
	}
	if got := encodeSplitRequest(at, x); !bytes.HasPrefix(data, got) {
		t.Fatalf("re-encoding (%d bytes) is not a prefix of the %d bytes decoded", len(got), len(data))
	}
}

func FuzzDecodeSplitRequest(f *testing.F) {
	for _, s := range splitRequestSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSplitRequestBytes(t, data)
	})
}

func TestDecodeSplitRequestSeedCorpus(t *testing.T) {
	for i, s := range splitRequestSeeds() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d panicked: %v", i, r)
				}
			}()
			checkSplitRequestBytes(t, s)
		}()
	}
}

// splitResultSeeds covers the result grammar, including trailing bytes the
// decoder ignores and a row/entropy mismatch it must refuse.
func splitResultSeeds() [][]byte {
	rng := tensor.NewRNG(19)
	res := PredictResult{Probs: rng.RandUniform(0, 1, 3, 4), Entropy: []float64{0.1, 0.5, 0.9}}
	valid := encodeResult(res, transport.EncodeTensor64)
	mismatch := append(transport.EncodeTensor64(rng.Randn(3, 4)), transport.EncodeFloats([]float64{0.1})...)
	rank1 := append(transport.EncodeTensor64(rng.Randn(4)), transport.EncodeFloats([]float64{0.1})...)
	return [][]byte{
		valid,
		append(valid[:len(valid):len(valid)], 0xDE, 0xAD),
		mismatch,
		rank1,
		{},
		valid[:5],
		valid[:len(valid)-3],
	}
}

func checkSplitResultBytes(t *testing.T, data []byte) {
	t.Helper()
	res, err := decodeResult(data, transport.DecodeTensor64, 3, 4) // the seeds answer a 3-row, 4-class query
	if err != nil {
		return
	}
	if sh := res.Probs.Shape; len(sh) != 2 || sh[0] != 3 || sh[1] != 4 || len(res.Entropy) != 3 {
		t.Fatalf("accepted shape %v with %d entropies for a 3x4 query", sh, len(res.Entropy))
	}
	if got := encodeResult(res, transport.EncodeTensor64); !bytes.HasPrefix(data, got) {
		t.Fatalf("re-encoding (%d bytes) is not a prefix of the %d bytes decoded", len(got), len(data))
	}
}

func FuzzDecodeSplitResult(f *testing.F) {
	for _, s := range splitResultSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSplitResultBytes(t, data)
	})
}

func TestDecodeSplitResultSeedCorpus(t *testing.T) {
	for i, s := range splitResultSeeds() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d panicked: %v", i, r)
				}
			}()
			checkSplitResultBytes(t, s)
		}()
	}
}

// TestSplitRequestRoundTripExact pins full-precision transport: the
// activation crosses the wire bit-for-bit (the query path's float32
// quantization would break the split contract).
func TestSplitRequestRoundTripExact(t *testing.T) {
	rng := tensor.NewRNG(23)
	x := rng.Randn(4, 17)
	at, got, err := decodeSplitRequest(encodeSplitRequest(6, x), nil)
	if err != nil {
		t.Fatal(err)
	}
	if at != 6 {
		t.Fatalf("split index %d, sent 6", at)
	}
	for i := range x.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(x.Data[i]) {
			t.Fatalf("activation[%d] not bit-exact", i)
		}
	}
}

// TestSplitVersionMismatchErrorRoundTrip pins the typed-error wire
// convention: the refusal text survives the network and rehydrates into
// ErrSplitVersionMismatch, while other worker errors stay generic.
func TestSplitVersionMismatchErrorRoundTrip(t *testing.T) {
	text := splitVersionMismatchPrefix + `serving "v2", request pinned to "v1"`
	if err := workerError(text); !errors.Is(err, ErrSplitVersionMismatch) {
		t.Fatalf("mismatch text rehydrated as %v", err)
	}
	if err := workerError("disk on fire"); errors.Is(err, ErrSplitVersionMismatch) {
		t.Fatal("generic error rehydrated as version mismatch")
	}
}
