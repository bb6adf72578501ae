package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
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

func TestRPCBasicCall(t *testing.T) {
	srv := NewRPCServer()
	srv.Register("echo", func(req []byte) ([]byte, error) { return req, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialRPC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resp, err := cli.Call("echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Fatalf("echo = %q", resp)
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	srv := NewRPCServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialRPC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call("nope", nil); err == nil {
		t.Fatal("unknown method succeeded")
	}
}

func TestRPCHandlerError(t *testing.T) {
	srv := NewRPCServer()
	srv.Register("fail", func([]byte) ([]byte, error) { return nil, errors.New("deliberate") })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialRPC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Call("fail", nil)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("deliberate")) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRPCConcurrentCalls(t *testing.T) {
	srv := NewRPCServer()
	srv.Register("double", func(req []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("%s%s", req, req)), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialRPC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fmt.Sprintf("m%d", i)
			resp, err := cli.Call("double", []byte(in))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != in+in {
				errs <- fmt.Errorf("call %d: got %q", i, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRPCCallAfterServerClose(t *testing.T) {
	srv := NewRPCServer()
	srv.Register("echo", func(req []byte) ([]byte, error) { return req, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialRPC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call("echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Subsequent calls must fail, not hang.
	if _, err := cli.Call("echo", []byte("y")); err == nil {
		t.Fatal("call after server close succeeded")
	}
}

func TestRPCWireOverheadPositive(t *testing.T) {
	if RPCWireOverhead("predict") <= 0 {
		t.Fatal("non-positive overhead")
	}
	if RPCWireOverhead("long-method-name") <= RPCWireOverhead("m") {
		t.Fatal("overhead must grow with method name")
	}
}

// pipeRW adapts an io.Pipe pair for serveConn testing without sockets.
type pipeRW struct {
	io.Reader
	io.Writer
}

func TestRPCServeConnDirect(t *testing.T) {
	srv := NewRPCServer()
	srv.Register("echo", func(req []byte) ([]byte, error) { return req, nil })
	cr, sw := io.Pipe()
	sr, cw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(pipeRW{Reader: sr, Writer: sw})
	}()
	env := encodeRPCRequest(1, "echo", []byte("direct"))
	if err := WriteFrame(cw, rpcRequest, env); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(cr)
	if err != nil {
		t.Fatal(err)
	}
	if typ != rpcResponse || payload[8] != rpcOK || string(payload[9:]) != "direct" {
		t.Fatalf("bad response: type=%d payload=%q", typ, payload)
	}
	cw.Close()
	<-done
}
