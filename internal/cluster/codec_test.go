package cluster

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Tests of the MsgDo codec (protocol.go): a round trip under every policy
// shape, and fuzz targets over both directions — for requests, split tails
// and every other policy shape; for replies, one target per way an asker
// reads them. Request and reply bodies arrive from the network, so the
// decoders must be total — any byte string either parses into a value whose
// re-encoding is a prefix of the bytes decoded (retraction), or fails
// cleanly. The seed corpora run as ordinary tests on every `make verify`,
// the fuzz engines on demand via `go test -fuzz`.

// TestDoCodecRoundTrip: every policy shape survives the wire, its tensor at
// the precision the policy names — float32 for a whole query, bit for bit
// for a split — and so does a reply at either precision.
func TestDoCodecRoundTrip(t *testing.T) {
	x := fabricInput(3)
	for _, p := range []Policy{
		{Gather: Own},
		{Gather: Own, Split: SplitAt(0)},
		{Gather: Own, Split: SplitAt(7)},
		{Gather: Strict},
		{Gather: Quorum, Soft: 42},
		{Gather: BestEffort, Split: SplitAuto},
	} {
		req, err := decodeRequest(encodeRequest(Request{X: x, Policy: p}), nil)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if req.Policy != p {
			t.Fatalf("policy round trip: sent %+v, got %+v", p, req.Policy)
		}
		for i := range x.Data {
			want := float64(float32(x.Data[i])) // float32 on the wire (transport.EncodeTensor)
			if p.wide() {
				want = x.Data[i]
			}
			if math.Float64bits(req.X.Data[i]) != math.Float64bits(want) {
				t.Fatalf("%+v: tensor element %d is %v, want %v", p, i, req.X.Data[i], want)
			}
		}
	}

	probs := tensor.New(2, 3)
	for i := range probs.Data {
		probs.Data[i] = float64(i) / 7
	}
	sent := Reply{Probs: probs, Entropy: []float64{0.1, 0.7}, Winners: []int{1, 0}, Live: 2, Total: 3}
	for _, wide := range []bool{false, true} {
		rep, err := decodeReply(encodeReply(sent, wide), wide, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Live != 2 || rep.Total != 3 || !slices.Equal(rep.Winners, sent.Winners) || !bitEqual(rep.Entropy, sent.Entropy) {
			t.Fatalf("wide=%v: reply round trip live=%d total=%d winners=%v entropies=%v", wide, rep.Live, rep.Total, rep.Winners, rep.Entropy)
		}
		for i := range probs.Data {
			want := float64(float32(probs.Data[i]))
			if wide {
				want = probs.Data[i]
			}
			if rep.Probs.Data[i] != want {
				t.Fatalf("wide=%v: probs element %d diverged", wide, i)
			}
		}
	}

	body := encodeRequest(Request{X: x, Policy: Policy{Gather: Quorum}})
	if _, err := decodeRequest(body[:requestPrefixSize-1], nil); err == nil {
		t.Fatal("truncated request accepted")
	}
	body[0] = byte(Own) + 1
	if _, err := decodeRequest(body, nil); err == nil {
		t.Fatal("request with an unknown gather rule accepted")
	}
	if _, err := decodeReply([]byte{0, 1}, false, 2, 3); err == nil {
		t.Fatal("truncated reply accepted")
	}
}

// TestSplitRequestRoundTripExact pins full-precision transport: a tail's
// activation crosses the wire bit for bit (a whole query's float32
// quantization would break the split contract), and so does the boundary.
func TestSplitRequestRoundTripExact(t *testing.T) {
	rng := tensor.NewRNG(23)
	x := rng.Randn(4, 17)
	got, err := decodeRequest(encodeRequest(Request{X: x, Policy: Policy{Gather: Own, Split: SplitAt(6)}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy.Split != SplitAt(6) {
		t.Fatalf("split point %d, sent %d", got.Policy.Split, SplitAt(6))
	}
	if !bitEqual(got.X.Data, x.Data) {
		t.Fatal("activation not bit-exact")
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

// requestSeed is one request body of the corpus and whether it decodes.
type requestSeed struct {
	body []byte
	ok   bool
}

// splitTailBody is x as the MsgDo body a master sends the peer running its
// tail from boundary at: {Own, SplitAt(at)}.
func splitTailBody(at int, x *tensor.Tensor) []byte {
	return encodeRequest(Request{X: x, Policy: Policy{Gather: Own, Split: SplitAt(at)}})
}

// splitRequestSeeds covers the request grammar as a split tail sends it:
// valid bodies, every truncation point, and a tensor header that lies about
// its size. (The version pin is the frame header's: header_test.go.)
func splitRequestSeeds() []requestSeed {
	rng := tensor.NewRNG(17)
	valid := splitTailBody(3, rng.Randn(2, 5))
	prefix := valid[:requestPrefixSize:requestPrefixSize]
	return []requestSeed{
		{valid, true},
		{splitTailBody(0, rng.Randn(1, 1)), true},
		{[]byte{}, false},
		{valid[:requestPrefixSize-1], false}, // truncated inside the split field
		{prefix, false},                      // the policy, no tensor
		{valid[:len(valid)-1], false},        // truncated inside the tensor
		{append(prefix, 255), false},         // tensor rank 255 with no dims
		// tensor dims whose product overflows the element cap
		{append(prefix, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), false},
	}
}

// requestSeeds covers the rest of the request grammar: the policy shapes a
// whole query takes, and policies no build sends.
func requestSeeds() []requestSeed {
	x := tensor.NewRNG(18).Randn(2, 5)
	pastOwn := encodeRequest(Request{X: x, Policy: Policy{Gather: Own}})
	pastOwn[0]++
	softOverflow := encodeRequest(Request{X: x, Policy: Policy{Gather: Quorum}})
	softOverflow[1] = 0x80
	belowAuto := encodeRequest(Request{X: x, Policy: Policy{Gather: Own, Split: SplitAuto - 1}})
	return []requestSeed{
		{encodeRequest(Request{X: x, Policy: Policy{Gather: Own}}), true},
		{encodeRequest(Request{X: x, Policy: Policy{Gather: Quorum, Soft: 5 * time.Millisecond}}), true},
		{pastOwn, false},      // a gather rule past the last one
		{softOverflow, false}, // a soft deadline past MaxInt64 ns
		// SplitAuto on the wire decodes; Do refuses it under Own.
		{encodeRequest(Request{X: x, Policy: Policy{Gather: Own, Split: SplitAuto}}), true},
		{belowAuto, false}, // a split point below SplitAuto
		// a float32-length tensor under a split, which reads float64
		{append(splitTailBody(1, x)[:requestPrefixSize:requestPrefixSize], transport.EncodeTensor(x)...), false},
	}
}

// checkRequestBytes is the invariant both the fuzz target and the seed
// corpus test enforce.
func checkRequestBytes(t *testing.T, data []byte) error {
	t.Helper()
	req, err := decodeRequest(data, nil)
	if err != nil {
		return err
	}
	if p := req.Policy; p.Gather > Own || p.Soft < 0 || p.Split < SplitAuto {
		t.Fatalf("accepted policy %+v", p)
	}
	size := 1
	for _, d := range req.X.Shape {
		size *= d
	}
	if size != len(req.X.Data) {
		t.Fatalf("shape %v inconsistent with %d elements", req.X.Shape, len(req.X.Data))
	}
	if got := encodeRequest(req); !bytes.HasPrefix(data, got) {
		t.Fatalf("re-encoding (%d bytes) is not a prefix of the %d bytes decoded", len(got), len(data))
	}
	return nil
}

func checkRequestSeeds(t *testing.T, seeds []requestSeed) {
	t.Helper()
	for i, s := range seeds {
		if err := checkRequestBytes(t, s.body); (err == nil) != s.ok {
			t.Fatalf("seed %d: err %v, want decoded=%v", i, err, s.ok)
		}
	}
}

func FuzzDecodeSplitRequest(f *testing.F) {
	for _, s := range splitRequestSeeds() {
		f.Add(s.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestBytes(t, data)
	})
}

func TestDecodeSplitRequestSeedCorpus(t *testing.T) {
	checkRequestSeeds(t, splitRequestSeeds())
}

func FuzzDecodeRequest(f *testing.F) {
	for _, s := range requestSeeds() {
		f.Add(s.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestBytes(t, data)
	})
}

func TestDecodeRequestSeedCorpus(t *testing.T) {
	checkRequestSeeds(t, requestSeeds())
}

// reading is how an asker reads a reply: at the precision its request named,
// expecting its rows and its classes (0: unchecked, as at a gateway).
type reading struct {
	wide          bool
	rows, classes uint8
}

// The three askers of the seed corpora.
var (
	peerReading    = reading{false, 2, 3} // a master reading a peer's answer to a 2-row query of a 3-class model
	tailReading    = reading{true, 3, 4}  // a master reading a peer's 3×4 split tail
	gatewayReading = reading{false, 2, 0} // a gateway reading a master's answer to a 2-row request
)

// replySeed is one reply body of the corpus, how it is read, and whether it
// decodes as that answer.
type replySeed struct {
	body []byte
	reading
	ok bool
}

func trailer(b []byte) []byte { return append(b[:len(b):len(b)], 0xDE, 0xAD) }

// replySeeds covers the reply grammar as a master reads a peer's answer —
// trailing bytes the decoder ignores, truncations, rows or classes short of
// what was asked, a lying tensor header — and a reply too short for the
// precision it is read at.
func replySeeds() []replySeed {
	peer := encodeReply(Reply{Probs: tensor.NewRNG(216).RandUniform(0, 1, 2, 3), Entropy: []float64{0.1, 0.9}, Winners: []int{0, 0}, Live: 1, Total: 1}, false)
	seeds := []replySeed{
		{peer, peerReading, true},
		{trailer(peer), peerReading, true},
		{[]byte{}, peerReading, false},
		{peer[:5], peerReading, false},
		{peer[:len(peer)-3], peerReading, false},
	}
	for _, body := range sortedBodies(hostileResults()) {
		seeds = append(seeds, replySeed{body, peerReading, false})
	}
	winners := replyPrefix(2)
	return append(seeds,
		replySeed{append(winners[:len(winners):len(winners)], 255), peerReading, false}, // probs rank 255 with no dims
		replySeed{append(winners[:len(winners):len(winners)], 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), peerReading, false},
		replySeed{[]byte{0, 1, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}, peerReading, false}, // 2^32-1 winners, no bytes for them
		replySeed{peer, reading{true, 2, 3}, false},                               // a whole-query reply read as a tail's
	)
}

// splitReplySeeds covers the reply grammar as a master reads a 3×4 tail,
// including entropies short of the rows and a rank-1 tensor.
func splitReplySeeds() []replySeed {
	rng := tensor.NewRNG(19)
	tail := encodeReply(Reply{Probs: rng.RandUniform(0, 1, 3, 4), Entropy: []float64{0.1, 0.5, 0.9}, Winners: make([]int, 3), Live: 1, Total: 1}, true)
	return []replySeed{
		{tail, tailReading, true},
		{trailer(tail), tailReading, true},
		{encodeReply(Reply{Probs: rng.Randn(3, 4), Entropy: []float64{0.1}, Winners: make([]int, 3)}, true), tailReading, false}, // one entropy for three rows
		{encodeReply(Reply{Probs: rng.Randn(4), Entropy: []float64{0.1, 0.1, 0.1}, Winners: make([]int, 3)}, true), tailReading, false},
		{[]byte{}, tailReading, false},
		{tail[:5], tailReading, false},
		{tail[:len(tail)-3], tailReading, false},
	}
}

// fabricReplySeeds covers the reply grammar as a gateway reads a master's
// 2-row answer, including winners short of the rows.
func fabricReplySeeds() []replySeed {
	master := encodeReply(Reply{Probs: tensor.NewRNG(217).RandUniform(0, 1, 2, 3), Entropy: []float64{0.2, 0.4}, Winners: []int{1, 0}, Live: 2, Total: 3}, false)
	seeds := []replySeed{
		{master, gatewayReading, true},
		{[]byte{}, gatewayReading, false},
		{master[:7], gatewayReading, false},
		{master[:len(master)-3], gatewayReading, false},
	}
	for _, body := range sortedBodies(hostileFabricResults()) {
		seeds = append(seeds, replySeed{body, gatewayReading, false})
	}
	return seeds
}

// replyPrefix is live, total and n zero winners: a reply body up to its
// probabilities.
func replyPrefix(n int) []byte {
	return encodeReply(Reply{Probs: tensor.New(0), Winners: make([]int, n), Live: 1, Total: 1}, false)[:replyPrefixSize+4*n]
}

// checkReplyBytes is the invariant every reply fuzz target and seed corpus
// test enforces: data read as r is refused or is exactly the answer r asked
// for.
func checkReplyBytes(t *testing.T, data []byte, r reading) error {
	t.Helper()
	rep, err := decodeReply(data, r.wide, int(r.rows), int(r.classes))
	if err != nil {
		return err
	}
	if sh := rep.Probs.Shape; len(sh) != 2 || sh[0] != int(r.rows) || (r.classes > 0 && sh[1] != int(r.classes)) || len(rep.Winners) != int(r.rows) || len(rep.Entropy) != int(r.rows) {
		t.Fatalf("accepted shape %v with %d winners and %d entropies for %d rows of %d classes", sh, len(rep.Winners), len(rep.Entropy), r.rows, r.classes)
	}
	if got := encodeReply(rep, r.wide); !bytes.HasPrefix(data, got) {
		t.Fatalf("re-encoding (%d bytes) is not a prefix of the %d bytes decoded", len(got), len(data))
	}
	return nil
}

func checkReplySeeds(t *testing.T, seeds []replySeed) {
	t.Helper()
	for i, s := range seeds {
		if err := checkReplyBytes(t, s.body, s.reading); (err == nil) != s.ok {
			t.Fatalf("seed %d: err %v, want decoded=%v", i, err, s.ok)
		}
	}
}

// FuzzDecodeResult fuzzes the reading along with the bytes.
func FuzzDecodeResult(f *testing.F) {
	for _, s := range replySeeds() {
		f.Add(s.body, s.wide, s.rows, s.classes)
	}
	f.Fuzz(func(t *testing.T, data []byte, wide bool, rows, classes uint8) {
		checkReplyBytes(t, data, reading{wide, rows, classes})
	})
}

func TestDecodeResultSeedCorpus(t *testing.T) {
	checkReplySeeds(t, replySeeds())
	checkReplySeeds(t, fabricReplySeeds())
}

// FuzzDecodeSplitResult fuzzes bytes read as a master reads a 3×4 tail.
func FuzzDecodeSplitResult(f *testing.F) {
	for _, s := range splitReplySeeds() {
		f.Add(s.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplyBytes(t, data, tailReading)
	})
}

func TestDecodeSplitResultSeedCorpus(t *testing.T) {
	checkReplySeeds(t, splitReplySeeds())
}

// FuzzDecodeFabricResult fuzzes bytes read as a gateway reads a master's
// 2-row answer.
func FuzzDecodeFabricResult(f *testing.F) {
	for _, s := range fabricReplySeeds() {
		f.Add(s.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplyBytes(t, data, gatewayReading)
	})
}
