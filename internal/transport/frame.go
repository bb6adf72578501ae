// Package transport implements the wire layer of the reproduction: a
// length-prefixed binary framing over io.Reader/Writer (used by the cluster
// runtime and the MPI substrate, standing in for the paper's raw TCP
// sockets), the tensor codecs that ride in it, and dial/backoff helpers.
//
// Everything is stdlib-only and transport-agnostic: the same code runs over
// real TCP connections, in-process pipes in unit tests, and the loopback
// links of the benchmark harness. The edge-network simulation
// (internal/edgesim) prices messages by the byte counts this package
// produces, so frames are exactly what "the network" sees.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxFrameSize bounds a single frame's payload (64 MiB). Inference inputs,
// activation tensors and model snapshots in this system are far smaller;
// the bound exists to fail fast on corrupted length prefixes.
const MaxFrameSize = 64 << 20

// Frame header layout: 4-byte big-endian payload length, 1-byte type.
const frameHeaderSize = 5

// MaxPooledScratch caps the scratch a FrameBatch keeps between flushes, and
// the read buffers and decoded inputs the cluster server loop pools: a model
// push must not pin tens of megabytes behind every later 3 KiB frame.
const MaxPooledScratch = 1 << 20

// FrameBatch gathers whole frames and sends them in one operation: a single
// writev on a *net.TCPConn, exactly one Write of an assembled buffer on any
// other writer. A frame that leaves as two segments on a TCP_NODELAY socket
// is delivered — and, on a per-chunk link model, delayed — twice; one
// operation per frame (or per burst of frames) is what keeps a request at
// one link traversal. The zero value is ready to use; a batch is not safe
// for concurrent use.
type FrameBatch struct {
	head []byte      // headers and copied prefixes, back to back
	vec  [][]byte    // what leaves, in order: slices of head, then referenced parts
	out  net.Buffers // writev cursor; a field so Flush does not allocate it
	flat []byte      // assembly scratch for non-TCP writers
}

// Add appends one frame whose payload is prefix followed by parts. prefix is
// copied next to the header (it is meant for a few bytes, such as a request
// id); parts are referenced, not copied, and must stay unmodified until
// Flush returns.
func (b *FrameBatch) Add(msgType byte, prefix []byte, parts ...[]byte) error {
	n := len(prefix)
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxFrameSize {
		return fmt.Errorf("transport: frame payload %d exceeds max %d", n, MaxFrameSize)
	}
	// head may move when it grows; slices taken earlier keep pointing at the
	// bytes already written, which is all vec needs of them.
	start := len(b.head)
	b.head = binary.BigEndian.AppendUint32(b.head, uint32(n))
	b.head = append(b.head, msgType)
	b.head = append(b.head, prefix...)
	b.vec = append(b.vec, b.head[start:])
	for _, p := range parts {
		if len(p) > 0 {
			b.vec = append(b.vec, p)
		}
	}
	return nil
}

// Flush sends every frame added since the last Flush and empties the batch,
// whatever the outcome.
func (b *FrameBatch) Flush(w io.Writer) error {
	if len(b.vec) == 0 {
		return nil
	}
	defer b.reset()
	var err error
	if tc, ok := w.(*net.TCPConn); ok {
		b.out = b.vec
		_, err = b.out.WriteTo(tc)
	} else {
		b.flat = b.flat[:0]
		for _, p := range b.vec {
			b.flat = append(b.flat, p...)
		}
		_, err = w.Write(b.flat)
	}
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

func (b *FrameBatch) reset() {
	clear(b.vec) // drop the payload references
	b.vec, b.out, b.head = b.vec[:0], nil, b.head[:0]
	if cap(b.flat) > MaxPooledScratch {
		b.flat = nil
	}
}

var frameBatches = sync.Pool{New: func() any { return new(FrameBatch) }}

// WriteFrame writes one typed frame to w in a single operation; the payload
// is the concatenation of parts.
func WriteFrame(w io.Writer, msgType byte, parts ...[]byte) error {
	b := frameBatches.Get().(*FrameBatch)
	defer frameBatches.Put(b)
	if err := b.Add(msgType, nil, parts...); err != nil {
		return err
	}
	return b.Flush(w)
}

// readFrameUpfront is the most ReadFrame allocates on the word of a length
// prefix alone; past it the buffer grows only as payload bytes arrive, so a
// five-byte header claiming 64 MiB costs its sender's bytes, not ours.
const readFrameUpfront = 1 << 20

// ReadFrame reads one typed frame from r. The payload never aliases a
// buffered reader's internal buffer. With no buf (or a nil one) it is
// freshly allocated; with a buf whose capacity holds it, it is buf[:n] — the
// caller owns that memory and decides when the payload's bytes may be
// overwritten. A payload larger than cap(buf) is freshly allocated as if no
// buf were given, so a length prefix never makes a caller's buffer grow.
func ReadFrame(r io.Reader, buf ...[]byte) (msgType byte, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > MaxFrameSize {
		return 0, nil, fmt.Errorf("transport: frame payload %d exceeds max %d", size, MaxFrameSize)
	}
	n := int(size)
	if len(buf) > 0 && buf[0] != nil && cap(buf[0]) >= n {
		payload = buf[0][:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, fmt.Errorf("transport: read frame payload: %w", err)
		}
		return hdr[4], payload, nil
	}
	payload = make([]byte, min(n, readFrameUpfront))
	got := 0
	for {
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			return 0, nil, fmt.Errorf("transport: read frame payload: %w", err)
		}
		if got = len(payload); got == n {
			return hdr[4], payload, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, payload)
		payload = grown
	}
}

// FrameWireSize returns the number of bytes a payload of length n occupies
// on the wire, the quantity the network cost model prices.
func FrameWireSize(n int) int { return frameHeaderSize + n }
