package cluster

import (
	"context"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Hostile-reply tests. A reply comes from another machine: whatever its
// bytes say, the receiver must turn a reply of the wrong shape into a decode
// error (a link fault, one breaker strike) — never index into it. The
// rank-0 body below killed the whole serving process before the decoders
// checked rank. The fuzz targets over the same decoder, read as a master
// and as a gateway read it, are FuzzDecodeResult and FuzzDecodeFabricResult
// (codec_test.go), whose corpora hold these bodies.

// hostileResults are MsgReply bodies that parse as far as the probabilities
// but do not answer a peer's 2-row query of a 3-class model.
func hostileResults() map[string][]byte {
	rng := tensor.NewRNG(210)
	reply := func(probs *tensor.Tensor) []byte {
		return encodeReply(Reply{Probs: probs, Entropy: []float64{0.5, 0.5}, Winners: []int{0, 0}, Live: 1, Total: 1}, false)
	}
	return map[string][]byte{
		"rank 0":     reply(&tensor.Tensor{Data: []float64{0.5}}),
		"rank 1":     reply(rng.Randn(2)),
		"short rows": reply(rng.Randn(1, 3)),
		"wrong cols": reply(rng.Randn(2, 5)),
	}
}

// hostileFabricResults are MsgReply bodies that do not answer a gateway's
// 2-row request (a gateway does not check the class count).
func hostileFabricResults() map[string][]byte {
	rng := tensor.NewRNG(211)
	reply := func(probs *tensor.Tensor, winners ...int) []byte {
		return encodeReply(Reply{Probs: probs, Entropy: []float64{0.5, 0.5}, Winners: winners, Live: 1, Total: 1}, false)
	}
	return map[string][]byte{
		"rank 0":     reply(&tensor.Tensor{Data: []float64{0.5}}, 0, 0),
		"rank 1":     reply(rng.Randn(2), 0, 0),
		"short rows": reply(rng.Randn(1, 3), 0, 0),
		"no winners": reply(rng.Randn(2, 3)),
	}
}

// sortedBodies lists a hostile set's bodies in name order.
func sortedBodies(set map[string][]byte) [][]byte {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = set[name]
	}
	return out
}

// hostileReplies wraps each hostile body in a well-formed reply header and
// adds the replies whose header itself is hostile: cut short, or of a layout
// this build does not speak. valid is a body that would have been accepted.
func hostileReplies(bodies map[string][]byte, valid []byte) map[string]func(id uint32) []byte {
	out := map[string]func(id uint32) []byte{
		"short reply header": func(id uint32) []byte {
			return replyPayload(replyHeader{id: id}, nil)[:replyHeaderSize-1]
		},
		"unknown header version": func(id uint32) []byte {
			p := replyPayload(replyHeader{id: id}, valid)
			p[0] = headerVersion + 1
			return p
		},
	}
	for name, body := range bodies {
		out[name] = func(id uint32) []byte { return replyPayload(replyHeader{id: id}, body) }
	}
	return out
}

// cannedReplier answers pings and answers every MsgDo with one canned
// frame of resType made for the request's id.
func cannedReplier(t *testing.T, resType byte, reply func(id uint32) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				cw := &connWriter{conn: conn}
				for {
					typ, payload, err := transport.ReadFrame(conn)
					if err != nil {
						return
					}
					switch typ {
					case MsgPing:
						err = cw.write(MsgPong, nil)
					case MsgDo:
						var h requestHeader
						if h, _, err = decodeRequestHeader(payload); err == nil {
							err = cw.write(resType, reply(h.id))
						}
					}
					if err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestHostileWorkerReplyIsALinkFault(t *testing.T) {
	_, healthy := snapshotWorker(t, 212, 1)
	x := tensor.NewRNG(213).Randn(2, 4)
	for name, reply := range hostileReplies(hostileResults(), replySeeds()[0].body) {
		t.Run(name, func(t *testing.T) {
			hostile := cannedReplier(t, MsgReply, reply)
			master := NewMaster(tinyExpert(t, 214), 3)
			defer master.Close()
			cfg := fastSupervisor()
			cfg.MaxRetries = 0
			master.SetSupervisor(cfg)
			master.SetTimeout(2 * time.Second)
			for _, addr := range []string{healthy, hostile} {
				if err := master.Connect(addr); err != nil {
					t.Fatal(err)
				}
			}

			probs, winners, live, total, err := master.InferQuorumContext(context.Background(), x, 0)
			if err != nil {
				t.Fatalf("quorum with one hostile peer: %v", err)
			}
			if live != 2 || total != 3 || probs.Shape[0] != 2 || len(winners) != 2 {
				t.Fatalf("live=%d total=%d shape=%v winners=%v, want the other two nodes' answer", live, total, probs.Shape, winners)
			}
			if h := master.Health()[1]; h.Failures != 1 {
				t.Fatalf("hostile reply cost %d breaker strikes, want 1: %+v", h.Failures, h)
			}
			if _, _, err := master.Infer(x); err == nil {
				t.Fatal("strict Infer accepted a hostile peer's reply")
			}
		})
	}
}

func TestHostileMasterReplyIsAnError(t *testing.T) {
	x := tensor.NewRNG(215).Randn(2, 4)
	for name, reply := range hostileReplies(hostileFabricResults(), fabricReplySeeds()[0].body) {
		t.Run(name, func(t *testing.T) {
			rm := NewRemoteMaster(cannedReplier(t, MsgReply, reply), 2*time.Second)
			defer rm.Close()
			if _, _, err := rm.InferContext(context.Background(), x); err == nil {
				t.Fatal("gateway accepted a hostile master's reply")
			}
			if n := rm.Metrics().Counter("fabric.link_down").Value(); n != 1 {
				t.Fatalf("fabric.link_down = %d, want the pipeline torn down once", n)
			}
		})
	}
}
