package cluster

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Fuzz targets for the split-frame codec: MsgSplitPredict and
// MsgSplitResult payloads arrive from the network, so the decoders must be
// total — any byte string either parses into a frame whose re-encoding is
// exactly the bytes consumed (retraction), or fails cleanly. The seed
// corpora run as ordinary tests on every `make verify`, the fuzz engines on
// demand via `go test -fuzz`.

// splitRequestSeeds covers the request grammar: valid frames at both
// version-length extremes, every truncation point, and a header that lies
// about its tensor size.
func splitRequestSeeds() [][]byte {
	rng := tensor.NewRNG(17)
	valid := EncodeSplitRequest(SplitRequest{Version: "v1", Split: 3, X: rng.Randn(2, 5)})
	long := EncodeSplitRequest(SplitRequest{Version: string(bytes.Repeat([]byte{'x'}, 300)), Split: 0, X: rng.Randn(1, 1)})
	return [][]byte{
		valid,
		long,
		EncodeSplitRequest(SplitRequest{X: rng.Randn(1, 4)}), // empty version
		{},                      // empty
		{0x00},                  // truncated at version length
		{0xFF, 0xFF},            // version length with no version bytes
		valid[:2],               // version length only
		valid[:len(valid)-1],    // truncated inside the tensor
		{0, 0, 0, 0, 0, 3, 255}, // tensor rank 255 with no dims
		// tensor dims whose product overflows the element cap
		append([]byte{0, 0, 0, 0, 0, 0}, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
	}
}

// checkSplitRequestBytes is the invariant both the fuzz target and the seed
// corpus test enforce.
func checkSplitRequestBytes(t *testing.T, data []byte) {
	t.Helper()
	req, used, err := DecodeSplitRequest(data)
	if err != nil {
		return
	}
	if used < 0 || used > len(data) {
		t.Fatalf("consumed %d of %d bytes", used, len(data))
	}
	size := 1
	for _, d := range req.X.Shape {
		size *= d
	}
	if size != len(req.X.Data) {
		t.Fatalf("shape %v inconsistent with %d elements", req.X.Shape, len(req.X.Data))
	}
	if got := EncodeSplitRequest(req); !bytes.Equal(got, data[:used]) {
		t.Fatalf("re-encoding is not the consumed bytes: %d vs %d", len(got), used)
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

// splitResultSeeds covers the result grammar, including a frame with the
// compute-timing trailer the client strips off and a row/entropy mismatch
// the decoder must refuse.
func splitResultSeeds() [][]byte {
	rng := tensor.NewRNG(19)
	res := PredictResult{Probs: rng.RandUniform(0, 1, 3, 4), Entropy: []float64{0.1, 0.5, 0.9}}
	valid := encodeSplitResult(res)
	mismatch := append(transport.EncodeTensor64(rng.Randn(3, 4)), transport.EncodeFloats([]float64{0.1})...)
	rank1 := append(transport.EncodeTensor64(rng.Randn(4)), transport.EncodeFloats([]float64{0.1})...)
	return [][]byte{
		valid,
		appendComputeTime(valid, 1500*time.Microsecond),
		mismatch,
		rank1,
		{},
		valid[:5],
		valid[:len(valid)-3],
	}
}

func checkSplitResultBytes(t *testing.T, data []byte) {
	t.Helper()
	res, rest, err := decodeSplitResultRest(data, 3, 4) // the seeds answer a 3-row, 4-class query
	if err != nil {
		return
	}
	if sh := res.Probs.Shape; len(sh) != 2 || sh[0] != 3 || sh[1] != 4 || len(res.Entropy) != 3 {
		t.Fatalf("accepted shape %v with %d entropies for a 3x4 query", sh, len(res.Entropy))
	}
	used := len(data) - len(rest)
	if got := encodeSplitResult(res); !bytes.Equal(got, data[:used]) {
		t.Fatalf("re-encoding is not the consumed bytes: %d vs %d", len(got), used)
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
	req := SplitRequest{Version: "sha256:abcd", Split: 6, X: x}
	enc := EncodeSplitRequest(req)
	got, used, err := DecodeSplitRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(enc) {
		t.Fatalf("consumed %d of %d", used, len(enc))
	}
	if got.Version != req.Version || got.Split != req.Split {
		t.Fatalf("header corrupted: %+v", got)
	}
	for i := range x.Data {
		if math.Float64bits(got.X.Data[i]) != math.Float64bits(x.Data[i]) {
			t.Fatalf("activation[%d] not bit-exact", i)
		}
	}
	// The trailer convention: trace context after the request must survive.
	withTrailer := append(append([]byte{}, enc...), 0xDE, 0xAD)
	_, used2, err := DecodeSplitRequest(withTrailer)
	if err != nil || used2 != len(enc) {
		t.Fatalf("trailing bytes broke the decode: used %d err %v", used2, err)
	}
}

// TestSplitVersionMismatchErrorRoundTrip pins the typed-error wire
// convention: the refusal text survives the network and rehydrates into
// ErrSplitVersionMismatch, while other worker errors stay generic.
func TestSplitVersionMismatchErrorRoundTrip(t *testing.T) {
	text := splitVersionMismatchPrefix + `serving "v2", head computed against "v1"`
	if err := splitErrorFromText(text); !errors.Is(err, ErrSplitVersionMismatch) {
		t.Fatalf("mismatch text rehydrated as %v", err)
	}
	if err := splitErrorFromText("disk on fire"); errors.Is(err, ErrSplitVersionMismatch) {
		t.Fatal("generic error rehydrated as version mismatch")
	}
}
