package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// Wire-format tests for the one-write frame path: the request id now rides
// in the header vector and bursts share a write, and none of that may move
// a byte on the wire — mixed-version fleets and edgesim's byte pricing
// depend on it.

// appendMuxID is how a mux payload was assembled before the id moved next
// to the frame header (an allocation and a copy of the whole payload per
// frame). Kept as the reference the golden-bytes test compares against, and
// for tests that hand-build mux frames.
func appendMuxID(id uint32, payload []byte) []byte {
	out := make([]byte, muxIDSize, muxIDSize+len(payload))
	binary.BigEndian.PutUint32(out, id)
	return append(out, payload...)
}

// referenceFrame renders a frame the way the two-write WriteFrame put it on
// the wire: 4-byte big-endian length, type, payload.
func referenceFrame(typ byte, payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(append(out, typ), payload...)
}

// sent runs send against one end of a pipe and returns the n bytes that
// arrive at the other.
func sent(t *testing.T, n int, send func(conn net.Conn)) []byte {
	t.Helper()
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	go send(near)
	got := make([]byte, n)
	far.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(far, got); err != nil {
		t.Fatalf("reading %d wire bytes: %v", n, err)
	}
	return got
}

func TestWireBytesUnchanged(t *testing.T) {
	x := tensor.NewRNG(7).Randn(2, 4)
	// The longest form a predict frame takes: tensor plus trace trailer.
	predict := appendTraceContext(transport.EncodeTensor(x), trace.Context{TraceID: 0x1122334455667788, SpanID: 0x99})
	fabric := encodeFabricRequest(fabricModeQuorum, 5e6, 2e9, x)
	split := EncodeSplitRequest(SplitRequest{Version: "v1", Split: 2, X: x})
	result := appendComputeTime(EncodeResult(PredictResult{Probs: x, Entropy: []float64{0.5, 0.25}}), 3*time.Millisecond)

	// Requests through the mux client (the first id on a link is 1).
	for _, tc := range []struct {
		name             string
		reqType, resType byte
		typed            byte // non-zero: sent with roundTripTyped
		payload          []byte
	}{
		{"MsgPredictMux", MsgPredictMux, MsgResultMux, 0, predict},
		{"MsgFabricPredict", MsgFabricPredict, MsgFabricResult, 0, fabric},
		{"MsgSplitPredict", MsgPredictMux, MsgResultMux, MsgSplitPredict, split},
	} {
		want := referenceFrame(tc.reqType, appendMuxID(1, tc.payload))
		if tc.typed != 0 {
			want = referenceFrame(tc.typed, appendMuxID(1, tc.payload))
		}
		got := sent(t, len(want), func(conn net.Conn) {
			mc := newMuxClientTyped(conn, tc.reqType, tc.resType, new(metrics.Gauge), new(metrics.Gauge), nil)
			defer mc.close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if tc.typed != 0 {
				mc.roundTripTyped(ctx, tc.typed, tc.payload, 0, ctx.Done())
			} else {
				mc.roundTrip(ctx, tc.payload, 0, ctx.Done())
			}
		})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire bytes differ from the parent's\n got %x\nwant %x", tc.name, got, want)
		}
	}

	// Replies and control frames through the server-side writer.
	for _, tc := range []struct {
		name string
		want []byte
		send func(cw *connWriter) error
	}{
		{"MsgResultMux", referenceFrame(MsgResultMux, appendMuxID(0xA1B2C3D4, result)),
			func(cw *connWriter) error { return cw.writeMux(MsgResultMux, 0xA1B2C3D4, result) }},
		{"MsgErrorMux", referenceFrame(MsgErrorMux, appendMuxID(9, []byte("boom"))),
			func(cw *connWriter) error { return cw.writeMux(MsgErrorMux, 9, []byte("boom")) }},
		{"MsgFabricResult empty", referenceFrame(MsgFabricResult, appendMuxID(2, nil)),
			func(cw *connWriter) error { return cw.writeMux(MsgFabricResult, 2, nil) }},
		{"MsgResult", referenceFrame(MsgResult, result),
			func(cw *connWriter) error { return cw.write(MsgResult, result) }},
		{"MsgPong", []byte{0, 0, 0, 0, MsgPong},
			func(cw *connWriter) error { return cw.write(MsgPong, nil) }},
	} {
		got := sent(t, len(tc.want), func(conn net.Conn) { tc.send(&connWriter{conn: conn}) })
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: wire bytes differ from the parent's\n got %x\nwant %x", tc.name, got, tc.want)
		}
	}

	// One absolute anchor, so the reference itself cannot drift.
	got := sent(t, 5, func(conn net.Conn) { transport.WriteFrame(conn, MsgPing, nil) })
	if want := []byte{0, 0, 0, 0, 3}; !bytes.Equal(got, want) {
		t.Errorf("MsgPing on the wire = %x, want %x", got, want)
	}
	got = sent(t, 11, func(conn net.Conn) { (&connWriter{conn: conn}).writeMux(MsgResultMux, 7, []byte{0xAA, 0xBB}) })
	if want := []byte{0, 0, 0, 6, 10, 0, 0, 0, 7, 0xAA, 0xBB}; !bytes.Equal(got, want) {
		t.Errorf("MsgResultMux on the wire = %x, want %x", got, want)
	}
}

// writeCountingConn counts Write calls on its way to the wrapped conn.
type writeCountingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestMuxWriteLoopCoalescesBlockedWriters: while the link's single writer
// is stuck in a write (net.Pipe delivers nothing until someone reads), K
// more requests pile up on writeCh; once the link moves they leave in ONE
// further write, and every reply still reaches the waiter that owns its id.
func TestMuxWriteLoopCoalescesBlockedWriters(t *testing.T) {
	const k = 8
	near, far := net.Pipe()
	defer far.Close()
	cc := &writeCountingConn{Conn: near}
	mc := newMuxClient(cc, new(metrics.Gauge), new(metrics.Gauge), nil)
	defer mc.close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, k+1)
	ask := func(mark byte) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := bytes.Repeat([]byte{mark}, 64)
			r, _, err := mc.roundTrip(ctx, payload, 0, ctx.Done())
			if err == nil && !bytes.Equal(r.payload, payload) {
				err = io.ErrUnexpectedEOF // someone else's reply
			}
			errs <- err
		}()
	}
	pending := func() int {
		mc.mu.Lock()
		defer mc.mu.Unlock()
		return len(mc.pending)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
		}
	}

	ask(0)
	waitFor("the first write", func() bool { return cc.writes.Load() == 1 }) // stalled: nobody reads yet
	for i := 1; i <= k; i++ {
		ask(byte(i))
	}
	waitFor("all requests registered", func() bool { return pending() == k+1 })
	time.Sleep(20 * time.Millisecond) // registered → parked on writeCh is a few instructions

	// The far end: echo every request's body back under its id.
	cw := &connWriter{conn: far}
	for i := 0; i <= k; i++ {
		typ, payload, err := transport.ReadFrame(far)
		if err != nil || typ != MsgPredictMux {
			t.Fatalf("frame %d: type %d err %v", i, typ, err)
		}
		id, body, err := splitMuxID(payload)
		if err != nil {
			t.Fatal(err)
		}
		go cw.writeMux(MsgResultMux, id, body)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
	}
	if got := cc.writes.Load(); got > 2 {
		t.Fatalf("%d requests left in %d writes, want the stalled one plus one burst", k+1, got)
	}
}

// BenchmarkMuxRoundTrip drives one pipelined request/reply at a time over
// loopback TCP against an acking far end, at the batch16 frame size. What
// still allocates per op is the far end's ReadFrame of the 50 KB request and
// the reply plumbing; the second 50 KB — appendMuxID's copy of the payload —
// is gone (parent: 10 allocs, 115 KB per op).
func BenchmarkMuxRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		cw := &connWriter{conn: conn}
		ack := []byte("ok")
		for {
			_, payload, err := transport.ReadFrame(conn)
			if err != nil {
				return
			}
			id, _, _ := splitMuxID(payload)
			if cw.writeMux(MsgResultMux, id, ack) != nil {
				return
			}
		}
	}()
	conn, err := transport.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	mc := newMuxClient(conn, new(metrics.Gauge), new(metrics.Gauge), nil)
	defer mc.close()
	payload := make([]byte, 50<<10)
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mc.roundTrip(ctx, payload, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
