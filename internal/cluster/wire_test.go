package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
	"github.com/teamnet/teamnet/internal/transport"
)

// Wire-format tests for the one-write frame path: the frame header rides in
// the header vector next to the transport's length and type, bursts share a
// write, and the bytes that leave are pinned literally — they are the
// contract between every node of a fleet (DESIGN.md §7), and edgesim prices
// the bodies.

// requestPayload is a pipelined request as it crosses the wire: header, then
// body. The hand-built frames of the server-side tests use it.
func requestPayload(h requestHeader, body []byte) []byte {
	return append(appendRequestHeader(nil, h), body...)
}

// replyPayload is a pipelined reply as it crosses the wire.
func replyPayload(h replyHeader, body []byte) []byte {
	return append(appendReplyHeader(nil, h), body...)
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

// unhex decodes a golden frame written as spaced hex.
func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireBytesGolden pins the one request kind under each policy shape a
// node sends — a peer's whole query, a split tail, a gateway's query — and
// its reply, byte for byte: frame length and type, the header, the body.
// The requests go through the mux client (the first id on a link is 1; no
// ctx deadline, so budget 0 — the header table in header_test.go pins a
// non-zero budget), the replies through the server-side writer.
func TestWireBytesGolden(t *testing.T) {
	x := tensor.New(1, 1)
	x.Data[0] = 0.5
	traced := trace.NewContext(context.Background(), trace.Context{TraceID: 0x1122334455667788, SpanID: 0x99})

	for _, tc := range []struct {
		name string
		ctx  context.Context
		pin  string
		req  Request
		want string
	}{
		{"{Own, SplitOff} traced", traced, "", Request{X: x, Policy: Policy{Gather: Own}}, `
			00000039 12
			01 00000001 0000000000000000 1122334455667788 0000000000000099 0000
			03 0000000000000000 00000000
			02 00000001 00000001 3f000000`},
		{"{Own, SplitAt(2)} traced and pinned", traced, "v1", Request{X: x, Policy: Policy{Gather: Own, Split: SplitAt(2)}}, `
			0000003f 12
			01 00000001 0000000000000000 1122334455667788 0000000000000099 0002 7631
			03 0000000000000000 00000003
			02 00000001 00000001 3fe0000000000000`},
		{"{Quorum, 5ms}", context.Background(), "", Request{X: x, Policy: Policy{Gather: Quorum, Soft: 5 * time.Millisecond}}, `
			00000039 12
			01 00000001 0000000000000000 0000000000000000 0000000000000000 0000
			02 00000000004c4b40 00000000
			02 00000001 00000001 3f000000`},
	} {
		want := unhex(t, tc.want)
		got := sent(t, len(want), func(conn net.Conn) {
			mc := newMuxClient(conn, new(metrics.Gauge), new(metrics.Gauge), nil)
			defer mc.close()
			done := make(chan struct{})
			time.AfterFunc(5*time.Second, func() { close(done) })
			mc.roundTrip(tc.ctx, tc.pin, encodeRequest(tc.req), 0, done)
		})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire bytes moved\n got %x\nwant %x", tc.name, got, want)
		}
	}

	reply := encodeReply(Reply{Probs: x, Entropy: []float64{0.25}, Winners: []int{0}, Live: 1, Total: 1}, false)
	for _, tc := range []struct {
		name string
		send func(cw *connWriter) error
		want string
	}{
		{"MsgReply", func(cw *connWriter) error {
			return cw.writeReply(MsgReply, replyHeader{id: 0xA1B2C3D4, compute: 3 * time.Millisecond}, reply)
		}, `
			00000032 13
			01 a1b2c3d4 00000000002dc6c0
			0001 0001 00000001 00000000
			02 00000001 00000001 3f000000
			00000001 3fd0000000000000`},
		{"MsgErrorMux", func(cw *connWriter) error {
			return cw.writeReply(MsgErrorMux, replyHeader{id: 9}, []byte("boom"))
		}, `
			00000011 09
			01 00000009 0000000000000000
			626f6f6d`},
		{"MsgPong", func(cw *connWriter) error { return cw.write(MsgPong, nil) }, `00000000 02`},
	} {
		want := unhex(t, tc.want)
		got := sent(t, len(want), func(conn net.Conn) { tc.send(&connWriter{conn: conn}) })
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire bytes moved\n got %x\nwant %x", tc.name, got, want)
		}
	}

	got := sent(t, 5, func(conn net.Conn) { transport.WriteFrame(conn, MsgPing, nil) })
	if want := []byte{0, 0, 0, 0, 1}; !bytes.Equal(got, want) {
		t.Errorf("MsgPing on the wire = %x, want %x", got, want)
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
			r, _, err := mc.roundTrip(ctx, "", payload, 0, ctx.Done())
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
		if err != nil || typ != MsgDo {
			t.Fatalf("frame %d: type %d err %v", i, typ, err)
		}
		h, body, err := decodeRequestHeader(payload)
		if err != nil {
			t.Fatal(err)
		}
		go cw.writeReply(MsgReply, replyHeader{id: h.id}, body)
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
// the reply plumbing; the header is built in the writer's scratch and costs
// none (6 allocs, 57.5 KB per op since PR 14).
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
			h, _, _ := decodeRequestHeader(payload)
			if cw.writeReply(MsgReply, replyHeader{id: h.id}, ack) != nil {
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
		if _, _, err := mc.roundTrip(ctx, "", payload, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
