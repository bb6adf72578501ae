package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Hostile-reply tests. A reply comes from another machine: whatever its
// bytes say, the receiver must turn a reply of the wrong shape into a decode
// error (a link fault, one breaker strike) — never index into it. The
// rank-0 body below killed the whole serving process before the decoders
// checked rank.

// hostileResults are MsgResultMux bodies that parse as tensor ‖ floats but
// do not answer a 2-row query of a 3-class model.
func hostileResults() map[string][]byte {
	rng := tensor.NewRNG(210)
	result := func(probs *tensor.Tensor, entropies ...float64) []byte {
		return EncodeResult(PredictResult{Probs: probs, Entropy: entropies})
	}
	return map[string][]byte{
		"rank 0":     append([]byte{0, 0, 0, 0, 0}, transport.EncodeFloats([]float64{0.5})...),
		"rank 1":     result(rng.Randn(2), 0.5, 0.5),
		"short rows": result(rng.Randn(1, 3), 0.5),
		"wrong cols": result(rng.Randn(2, 5), 0.5, 0.5),
	}
}

// hostileFabricResults are MsgFabricResult bodies that do not answer a
// 2-row fabric request.
func hostileFabricResults() map[string][]byte {
	rng := tensor.NewRNG(211)
	return map[string][]byte{
		"rank 0":     append([]byte{0, 1, 0, 1, 0, 0, 0, 0}, 0, 0, 0, 0, 0),
		"rank 1":     encodeFabricResult(Reply{Probs: rng.Randn(2), Winners: []int{0, 0}, Live: 1, Total: 1}),
		"short rows": encodeFabricResult(Reply{Probs: rng.Randn(1, 3), Winners: []int{0}, Live: 1, Total: 1}),
		"no winners": encodeFabricResult(Reply{Probs: rng.Randn(2, 3), Live: 1, Total: 1}),
	}
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

// cannedReplier answers pings and answers every frame of reqType with one
// canned payload made for the request's id.
func cannedReplier(t *testing.T, reqType, resType byte, reply func(id uint32) []byte) string {
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
					case reqType:
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
	for name, reply := range hostileReplies(hostileResults(), resultSeeds()[0]) {
		t.Run(name, func(t *testing.T) {
			hostile := cannedReplier(t, MsgPredictMux, MsgResultMux, reply)
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
	for name, reply := range hostileReplies(hostileFabricResults(), fabricResultSeeds()[0]) {
		t.Run(name, func(t *testing.T) {
			rm := NewRemoteMaster(cannedReplier(t, MsgFabricPredict, MsgFabricResult, reply), 2*time.Second)
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

// The decoders' contract, checked over whatever bytes the fuzzer finds: a
// reply is either refused or has exactly the shape that was asked for.

func checkResultBytes(t *testing.T, data []byte) {
	t.Helper()
	res, err := decodeResult(data, transport.DecodeTensor, 2, 3)
	if err != nil {
		return
	}
	if sh := res.Probs.Shape; len(sh) != 2 || sh[0] != 2 || sh[1] != 3 || len(res.Entropy) != 2 {
		t.Fatalf("accepted shape %v with %d entropies for a 2x3 query", sh, len(res.Entropy))
	}
}

func checkFabricResultBytes(t *testing.T, data []byte) {
	t.Helper()
	rep, err := decodeFabricResult(data, 2)
	if err != nil {
		return
	}
	if sh := rep.Probs.Shape; len(sh) != 2 || sh[0] != 2 || len(rep.Winners) != 2 {
		t.Fatalf("accepted shape %v with %d winners for a 2-row request", sh, len(rep.Winners))
	}
}

func resultSeeds() [][]byte {
	rng := tensor.NewRNG(216)
	valid := EncodeResult(PredictResult{Probs: rng.RandUniform(0, 1, 2, 3), Entropy: []float64{0.1, 0.9}})
	seeds := [][]byte{valid, append(valid[:len(valid):len(valid)], 0xDE, 0xAD), {}, valid[:5], valid[:len(valid)-3]}
	for _, body := range hostileResults() {
		seeds = append(seeds, body)
	}
	return seeds
}

func fabricResultSeeds() [][]byte {
	valid := encodeFabricResult(Reply{Probs: tensor.NewRNG(217).RandUniform(0, 1, 2, 3), Winners: []int{1, 0}, Live: 2, Total: 3})
	seeds := [][]byte{valid, {}, valid[:7], valid[:len(valid)-3]}
	for _, body := range hostileFabricResults() {
		seeds = append(seeds, body)
	}
	return seeds
}

func FuzzDecodeResult(f *testing.F) {
	for _, s := range resultSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkResultBytes)
}

func FuzzDecodeFabricResult(f *testing.F) {
	for _, s := range fabricResultSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkFabricResultBytes)
}

func TestDecodeResultSeedCorpus(t *testing.T) {
	for i, s := range resultSeeds() {
		if res, err := decodeResult(s, transport.DecodeTensor, 2, 3); (err == nil) != (i < 2) {
			t.Fatalf("seed %d: err=%v res=%v, only the first two seeds are valid", i, err, res.Probs)
		}
		checkResultBytes(t, s)
	}
	for i, s := range fabricResultSeeds() {
		if _, err := decodeFabricResult(s, 2); (err == nil) != (i < 1) {
			t.Fatalf("fabric seed %d: err=%v, only the first seed is valid", i, err)
		}
		checkFabricResultBytes(t, s)
	}
}
