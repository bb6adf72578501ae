package cluster

import (
	"bytes"
	"context"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// Frame-header codec tests: the table pins the layout (one row literally),
// and the fuzz target — its seeds also run as an ordinary test on every
// `make verify` — holds the decoders to being total: any byte string either
// parses into a header whose re-encoding is exactly the bytes consumed, or
// fails cleanly.

func TestRequestHeaderRoundTrip(t *testing.T) {
	body := []byte{0xB0, 0xD1}
	for _, tc := range []struct {
		name string
		h    requestHeader
	}{
		{"zero", requestHeader{}},
		{"zero budget, zero trace", requestHeader{id: 7}},
		{"max id", requestHeader{id: math.MaxUint32}},
		{"max budget", requestHeader{id: 1, budget: math.MaxInt64}},
		{"traced", requestHeader{id: 2, trace: trace.Context{TraceID: math.MaxUint64, SpanID: 1}}},
		{"pinned", requestHeader{id: 3, pin: "0123456789abcdef/e1"}},
		{"longest pin", requestHeader{id: 4, pin: strings.Repeat("x", maxVersionPin)}},
		{"everything", requestHeader{id: 5, budget: 250 * time.Millisecond, trace: trace.Context{TraceID: 9, SpanID: 8}, pin: "v1"}},
	} {
		wire := requestPayload(tc.h, body)
		if want := requestHeaderFixed + len(tc.h.pin) + len(body); len(wire) != want {
			t.Fatalf("%s: %d bytes on the wire, want %d", tc.name, len(wire), want)
		}
		got, rest, err := decodeRequestHeader(wire)
		if err != nil || got != tc.h || !bytes.Equal(rest, body) {
			t.Fatalf("%s: decoded %+v rest % x err %v, sent %+v", tc.name, got, rest, err, tc.h)
		}
	}

	// The layout itself, once, literally.
	h := requestHeader{id: 0x01020304, budget: 1500 * time.Microsecond, trace: trace.Context{TraceID: 0x1122334455667788, SpanID: 0x99}, pin: "v1"}
	want := []byte{
		1,          // hdr-version
		1, 2, 3, 4, // id
		0, 0, 0, 0, 0, 0x16, 0xE3, 0x60, // budget_ns = 1 500 000
		0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, // trace_id
		0, 0, 0, 0, 0, 0, 0, 0x99, // span_id
		0, 2, 'v', '1', // version pin
	}
	if got := appendRequestHeader(nil, h); !bytes.Equal(got, want) {
		t.Fatalf("request header on the wire\n got % x\nwant % x", got, want)
	}
}

func TestReplyHeaderRoundTrip(t *testing.T) {
	body := []byte{0xB0, 0xD1}
	for _, h := range []replyHeader{{}, {id: math.MaxUint32}, {id: 6, compute: 3 * time.Millisecond}, {id: 1, compute: math.MaxInt64}} {
		wire := replyPayload(h, body)
		got, rest, err := decodeReplyHeader(wire)
		if len(wire) != replyHeaderSize+len(body) || err != nil || got != h || !bytes.Equal(rest, body) {
			t.Fatalf("decoded %+v rest % x err %v from %d bytes, sent %+v", got, rest, err, len(wire), h)
		}
	}
	want := []byte{1, 0xA1, 0xB2, 0xC3, 0xD4, 0, 0, 0, 0, 0, 0x2D, 0xC6, 0xC0}
	if got := appendReplyHeader(nil, replyHeader{id: 0xA1B2C3D4, compute: 3 * time.Millisecond}); !bytes.Equal(got, want) {
		t.Fatalf("reply header on the wire\n got % x\nwant % x", got, want)
	}
}

// TestRoundTripFillsHeaderFromCtx: the request header is ctx on the wire —
// what is left of the deadline as the budget, the ambient span as the trace
// parent — plus the pin; a bare ctx sends zeros, and a pin too long for its
// length field is the caller's error, not a frame.
func TestRoundTripFillsHeaderFromCtx(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	mc := newMuxClient(near, new(metrics.Gauge), new(metrics.Gauge), nil)
	defer mc.close()
	span := trace.Context{TraceID: 0xABCD, SpanID: 0x12}
	deadline, cancel := context.WithTimeout(trace.NewContext(context.Background(), span), time.Minute)
	defer cancel()

	for _, tc := range []struct {
		ctx  context.Context
		pin  string
		want requestHeader // budget: upper bound
	}{
		{deadline, "v1", requestHeader{id: 1, budget: time.Minute, trace: span, pin: "v1"}},
		{context.Background(), "", requestHeader{id: 2}},
	} {
		go mc.roundTrip(tc.ctx, MsgDo, tc.pin, []byte{0xB0}, 0, testDone(t))
		_, payload, err := transport.ReadFrame(far)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := decodeRequestHeader(payload)
		if err != nil {
			t.Fatal(err)
		}
		if tc.want.budget > 0 && (got.budget <= 0 || got.budget > tc.want.budget) {
			t.Fatalf("budget %v on the wire for a deadline %v away", got.budget, tc.want.budget)
		}
		got.budget = tc.want.budget
		if got != tc.want {
			t.Fatalf("header on the wire %+v, want %+v", got, tc.want)
		}
	}
	if _, _, err := mc.roundTrip(context.Background(), MsgDo, strings.Repeat("x", maxVersionPin+1), nil, 0, nil); err == nil {
		t.Fatal("a version pin longer than its length field was sent")
	}
}

// testDone gives an abandoned round trip a done channel the test closes on
// exit, so its goroutine does not outlive the test.
func testDone(t *testing.T) <-chan struct{} {
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	return done
}

// headerSeeds covers the grammar of both headers: a full request header cut
// at every byte, a pin length that overruns the frame, an unknown
// hdr-version, zero budget and trace, the largest id, out-of-range times.
func headerSeeds() [][]byte {
	full := requestPayload(requestHeader{id: math.MaxUint32, budget: time.Second, trace: trace.Context{TraceID: 1, SpanID: 2}, pin: "v1"}, []byte{0xB0, 0xD1})
	var seeds [][]byte
	for n := 0; n <= len(full); n++ {
		seeds = append(seeds, full[:n])
	}
	overrun := requestPayload(requestHeader{id: 1}, []byte{0xB0})
	overrun[requestHeaderFixed-2], overrun[requestHeaderFixed-1] = 0xFF, 0xFF
	unknown := bytes.Clone(full)
	unknown[0] = headerVersion + 1
	negative := bytes.Clone(full)
	negative[5] = 0x80 // budget_ns / compute_ns with the sign bit set
	return append(seeds,
		overrun, unknown, negative,
		requestPayload(requestHeader{}, nil),
		replyPayload(replyHeader{id: 9, compute: time.Millisecond}, []byte("boom")),
	)
}

// checkHeaderBytes is the invariant the fuzz target and the seed test share.
func checkHeaderBytes(t *testing.T, data []byte) {
	t.Helper()
	if h, body, err := decodeRequestHeader(data); err == nil {
		if h.budget < 0 || len(h.pin) > maxVersionPin {
			t.Fatalf("accepted request header %+v", h)
		}
		if got := appendRequestHeader(nil, h); !bytes.Equal(got, data[:len(data)-len(body)]) {
			t.Fatalf("request header re-encodes to % x, consumed % x", got, data[:len(data)-len(body)])
		}
	}
	if h, body, err := decodeReplyHeader(data); err == nil {
		if h.compute < 0 {
			t.Fatalf("accepted reply header %+v", h)
		}
		if got := appendReplyHeader(nil, h); !bytes.Equal(got, data[:len(data)-len(body)]) {
			t.Fatalf("reply header re-encodes to % x, consumed % x", got, data[:len(data)-len(body)])
		}
	}
}

func FuzzDecodeHeader(f *testing.F) {
	for _, s := range headerSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkHeaderBytes)
}

func TestDecodeHeaderSeedCorpus(t *testing.T) {
	seeds := headerSeeds()
	whole := requestHeaderFixed + len("v1") // the first seeds are one header cut at every byte
	for i, s := range seeds {
		checkHeaderBytes(t, s)
		_, _, err := decodeRequestHeader(s)
		switch {
		case i < whole && err == nil:
			t.Fatalf("request header truncated to %d bytes accepted", i)
		case i >= whole && i <= whole+2 && err != nil:
			t.Fatalf("whole request header with %d body bytes refused: %v", i-whole, err)
		}
	}
	for _, s := range seeds[whole+3 : whole+6] {
		if _, _, err := decodeRequestHeader(s); err == nil {
			t.Fatalf("hostile request header % x accepted", s)
		}
	}
	if _, _, err := decodeReplyHeader(seeds[whole+5]); err == nil {
		t.Fatal("reply header with a negative compute time accepted")
	}
}
