package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
)

// countingWriter records the size of every Write it sees.
type countingWriter struct {
	writes []int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.buf.Write(p)
}

// TestWriteFrameIsOneWrite: header and payload leave in a single Write on a
// plain io.Writer — empty payloads, multi-part payloads and whole batches
// included — and the bytes are the header followed by the parts in order.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, parts := range [][][]byte{
		nil,
		{nil},
		{[]byte("payload")},
		{[]byte("id"), nil, []byte("body"), []byte("trailer")},
		{make([]byte, 50<<10)},
	} {
		var w countingWriter
		if err := WriteFrame(&w, 9, parts...); err != nil {
			t.Fatal(err)
		}
		payload := bytes.Join(parts, nil)
		if len(w.writes) != 1 || w.writes[0] != FrameWireSize(len(payload)) {
			t.Fatalf("%d parts: writes %v, want one of %d bytes", len(parts), w.writes, FrameWireSize(len(payload)))
		}
		typ, got, err := ReadFrame(&w.buf)
		if err != nil || typ != 9 || !bytes.Equal(got, payload) {
			t.Fatalf("%d parts: read back type %d, %d bytes, err %v", len(parts), typ, len(got), err)
		}
	}

	var w countingWriter
	var b FrameBatch
	for i := 0; i < 3; i++ {
		if err := b.Add(byte(i), []byte{0, 0, 0, byte(i)}, []byte("row")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(&w); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 {
		t.Fatalf("batch of 3 frames left in %d writes", len(w.writes))
	}
	for i := 0; i < 3; i++ {
		typ, got, err := ReadFrame(&w.buf)
		if err != nil || typ != byte(i) || !bytes.Equal(got, []byte{0, 0, 0, byte(i), 'r', 'o', 'w'}) {
			t.Fatalf("frame %d of the batch: type %d payload %q err %v", i, typ, got, err)
		}
	}
	if err := b.Flush(&w); err != nil || len(w.writes) != 1 {
		t.Fatalf("flushing an empty batch wrote (writes %v, err %v)", w.writes, err)
	}
	if err := b.Add(1, nil, make([]byte, MaxFrameSize), []byte{0}); err == nil {
		t.Fatal("parts summing past MaxFrameSize accepted")
	}
}

// TestFrameCrossesLatencyLinkInOneDelay: over real TCP through the chaos
// proxy, which delays every chunk it forwards, a frame is one chunk — the
// link charges its latency once. A count, not a timing.
func TestFrameCrossesLatencyLinkInOneDelay(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		defer conn.Close()
		_, payload, err := ReadFrame(conn)
		if err == nil && len(payload) != 3136 {
			err = fmt.Errorf("payload %d bytes, want 3136", len(payload))
		}
		got <- err
	}()
	link := chaos.New(ln.Addr().String(), chaos.Fault{Mode: chaos.Latency, Delay: 20 * time.Millisecond})
	addr, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, 7, []byte{0, 0, 0, 1}, make([]byte, 3132)); err != nil { // one 784-feature float32 row
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if n := link.Metrics().Counter("injected.latency").Value(); n != 1 {
		t.Fatalf("the link delayed the frame %d times, want 1", n)
	}
}

// TestReadFrameAllocatesAsBytesArrive: a length prefix alone buys at most
// readFrameUpfront bytes of memory; a truncated giant frame fails at the
// cost of what was actually sent, and an honest large frame still arrives.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(giantClaimFrame()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 64 MiB frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readFrameUpfront {
		t.Fatalf("ten payload bytes cost %d bytes of allocation, want <= %d", grew, 2*readFrameUpfront)
	}

	big := make([]byte, 3*readFrameUpfront+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 5, big); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != 5 || !bytes.Equal(got, big) {
		t.Fatalf("large frame: type %d, %d bytes, err %v", typ, len(got), err)
	}
}

// TestReadFrameIntoBuffer: a payload that fits the caller's buffer is read
// into it; one that does not arrives in fresh memory with the buffer left
// alone; and a buffer changes nothing about what a length prefix alone can
// cost — five bytes claiming 64 MiB still buy at most readFrameUpfront.
func TestReadFrameIntoBuffer(t *testing.T) {
	buf := make([]byte, 64)
	for _, size := range []int{0, 10, 64, 65} {
		want := bytes.Repeat([]byte{byte(size)}, size)
		var wire bytes.Buffer
		if err := WriteFrame(&wire, 4, want); err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(&wire, buf)
		if err != nil || typ != 4 || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte frame into a 64-byte buffer: type %d, %d bytes, err %v", size, typ, len(got), err)
		}
		if into := cap(got) > 0 && &got[:1][0] == &buf[0]; into != (size <= cap(buf)) {
			t.Fatalf("%d-byte frame read into the 64-byte buffer: %v", size, into)
		}
	}
	if buf[0] != 64 {
		t.Fatalf("the 65-byte frame wrote into the buffer it did not fit")
	}

	big := make([]byte, readFrameUpfront)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(giantClaimFrame()), big)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 64 MiB frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readFrameUpfront {
		t.Fatalf("ten payload bytes beside a 1 MiB buffer cost %d bytes of allocation, want <= %d", grew, 2*readFrameUpfront)
	}
}

// TestReadFrameBufferedPayloadsDoNotAlias: behind a bufio.Reader (how the
// long-lived read loops read), a payload handed to a handler is its own
// memory: scribbling over it corrupts neither the frames still sitting in
// the reader's buffer nor the payloads returned after it.
func TestReadFrameBufferedPayloadsDoNotAlias(t *testing.T) {
	var wire bytes.Buffer
	for i := 0; i < 4; i++ {
		if err := WriteFrame(&wire, byte(i), bytes.Repeat([]byte{byte('a' + i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReaderSize(&wire, 64<<10)
	var held [][]byte
	for i := 0; i < 4; i++ {
		typ, payload, err := ReadFrame(br)
		if err != nil || typ != byte(i) {
			t.Fatalf("frame %d: type %d err %v", i, typ, err)
		}
		if want := bytes.Repeat([]byte{byte('a' + i)}, 100); !bytes.Equal(payload, want) {
			t.Fatalf("frame %d arrived as %q after earlier payloads were overwritten", i, payload[:8])
		}
		held = append(held, payload)
		for _, h := range held {
			for j := range h {
				h[j] = 0xEE
			}
		}
	}
	if _, _, err := ReadFrame(br); err == nil {
		t.Fatal("read a fifth frame out of four")
	}
}

var benchSink error

func BenchmarkWriteFrame(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"3KiB", 3 << 10}, {"50KiB", 50 << 10}} {
		payload := make([]byte, size.n)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(FrameWireSize(size.n)))
			for i := 0; i < b.N; i++ {
				benchSink = WriteFrame(io.Discard, 1, payload)
			}
		})
		b.Run(size.name+"/tcp", func(b *testing.B) {
			conn := discardingTCP(b)
			b.ReportAllocs()
			b.SetBytes(int64(FrameWireSize(size.n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = WriteFrame(conn, 1, payload)
			}
		})
	}
}

// discardingTCP dials a loopback listener whose far end reads and drops
// everything, so the benchmark pays a real writev per frame.
func discardingTCP(b *testing.B) net.Conn {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		defer ln.Close()
		if far, err := ln.Accept(); err == nil {
			_, _ = io.Copy(io.Discard, far)
			far.Close()
		}
	}()
	conn, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	return conn
}
