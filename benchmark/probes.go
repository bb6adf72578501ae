package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// Layer probes: after a traced round's fleet has stopped, up to
// probeReplays of its requests are replayed serially through each layer's
// public function, in this process, on the request's own body and reply.
// Every call is one child span of the request it replays, named after the
// per-layer metric it feeds. Together with oracle.go this file is all the
// benchmark compiles against under internal/:
//
//	serve.ParsePredict, serve.New, serve.Config, serve.Backend,
//	Gateway.Predict, serve.PredictResponse,
//	transport.EncodeTensor, transport.DecodeTensor,
//	nn.MustSnapshot, Snapshot.PredictWithEntropy, Snapshot.LayerCosts,
//	tensor.New, tensor.MatMulInto, tensor.EntropyRows

// span is one line of out/spans-<workload>.jsonl. Roots are the generator's
// requests; children are probe calls. Times are µs from the round's start.
type span struct {
	Trace  int     `json:"trace"` // request number within the round, from 1
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Rows   int     `json:"rows,omitempty"`
	Status string  `json:"status,omitempty"` // roots: "ok" or the failure
	Cached bool    `json:"cached,omitempty"`
	Calls  int     `json:"calls,omitempty"` // tensor.gemm only: products inside the span
}

// stubBackend answers at once with a uniform distribution, so what is left
// of Gateway.Predict is the gateway's own work.
type stubBackend struct{ classes int }

func (s stubBackend) InferContext(_ context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	probs := tensor.New(x.Shape[0], s.classes)
	for i := range probs.Data {
		probs.Data[i] = 1 / float64(s.classes)
	}
	return probs, make([]int, x.Shape[0]), nil
}

// probed is the outcome of the probes for one traced round.
type probed struct {
	spans       []span // roots first, then children
	flopsPerRow float64
	requestB    int // wire bytes of one request's input tensor, from its size
	resultB     int // wire bytes of one worker reply (probs + entropy)
	gemmGflops  float64
}

// meanUS is the mean duration of the child spans called name.
func (p *probed) meanUS(name string) float64 {
	sum, n := 0.0, 0
	for i := range p.spans {
		if s := &p.spans[i]; s.Parent != 0 && s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runProbes builds the round's root spans and replays its kept requests.
// Probe spans sit on the round's clock, after the window.
func runProbes(ctx context.Context, r *roundResult, seed int64, o *oracle) (*probed, error) {
	wl, begin := r.wl, r.begin
	p := &probed{}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i := range r.requests {
		q := &r.requests[i]
		status := "ok"
		if q.fail != "" {
			status = q.fail
		}
		p.spans = append(p.spans, span{Trace: i + 1, ID: i + 1, Name: "request",
			Start: us(q.start), End: us(q.end), Rows: wl.rows, Status: status, Cached: q.cached})
	}
	nextID := len(r.requests) + 1
	child := func(parent int, name string, f func()) *span {
		start := time.Since(begin)
		f()
		end := time.Since(begin)
		p.spans = append(p.spans, span{Trace: parent, ID: nextID, Parent: parent, Name: name, Start: us(start), End: us(end)})
		nextID++
		return &p.spans[len(p.spans)-1]
	}

	snap := nn.MustSnapshot(o.team.Experts[0])
	for _, c := range snap.LayerCosts() {
		p.flopsPerRow += c.FLOPs
	}
	// The gateway as teamnet-serve configures it by default.
	gw := serve.New(stubBackend{classes: o.team.Classes}, serve.Config{
		MaxBatch: 16, MaxLinger: 2 * time.Millisecond, QueueSize: 256, Workers: 2,
		DefaultTimeout: 2 * time.Second, Degraded: true,
		CacheSize: 4096, CacheTTL: 5 * time.Second, Coalesce: true,
	})
	defer gw.Close()
	gw.SetModelVersion("probe")

	px := make([]byte, wl.features)
	var body []byte
	// Each distinct tensor is replayed once (zipf_hot repeats keys), so the
	// probe gateway's first sight of it is a miss and its second a hit.
	replayed := map[uint64]bool{}
	for i := range r.requests {
		q := &r.requests[i]
		if q.resp == nil || !r.measured(q) || replayed[q.id] || len(replayed) == probeReplays {
			continue
		}
		replayed[q.id] = true
		root := i + 1
		body = appendBody(body[:0], px, seed, q.id, wl.rows)

		var x *tensor.Tensor
		var err error
		child(root, "serve.http.parse_us", func() {
			x, _, _, err = serve.ParsePredict(bytes.NewReader(body), 16)
		})
		if err != nil {
			return nil, fmt.Errorf("probe parse: %w", err)
		}
		// First sight of x is the miss path through cache key, queue,
		// batcher and a free backend; the second is the hit path.
		var miss, hit serve.Result
		child(root, "serve.queue.overhead_us", func() { miss, err = gw.Predict(ctx, x) })
		if err == nil {
			child(root, "serve.cache.key_hit_us", func() { hit, err = gw.Predict(ctx, x) })
		}
		if err != nil || miss.Cached || !hit.Cached {
			return nil, fmt.Errorf("probe gateway: want a miss then a hit, got cached %v then %v (err %v)", miss.Cached, hit.Cached, err)
		}

		var wire []byte
		child(root, "transport.encode_us", func() { wire = transport.EncodeTensor(x) })
		child(root, "transport.decode_us", func() { _, _, err = transport.DecodeTensor(wire) })
		if err != nil {
			return nil, fmt.Errorf("probe decode: %w", err)
		}
		var probs, entropy *tensor.Tensor
		child(root, "nn.forward_us", func() { probs, entropy = snap.PredictWithEntropy(x) })
		child(root, "tensor.entropy_us", func() { tensor.EntropyRows(probs) })
		p.requestB = len(wire)
		p.resultB = len(transport.EncodeTensor(probs)) + len(transport.EncodeTensor(entropy))

		reply := serve.PredictResponse{Probs: q.resp.Probs, Winners: q.resp.Winners, Entropy: q.resp.Entropy, Cached: q.resp.Cached}
		child(root, "serve.http.encode_us", func() { err = json.NewEncoder(io.Discard).Encode(reply) })
		if err != nil {
			return nil, fmt.Errorf("probe encode: %w", err)
		}
	}
	if len(replayed) == 0 {
		return nil, fmt.Errorf("no request of the traced round was kept for the probes")
	}

	// One span for the GEMM kernel at the expert's largest product, run
	// long enough for a rate.
	m, k, n := wl.gemm[0], wl.gemm[1], wl.gemm[2]
	a, b, dst := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	for i := range a.Data {
		a.Data[i] = pixelValue[i%256]
	}
	for i := range b.Data {
		b.Data[i] = pixelValue[(7*i)%256] - 0.5
	}
	calls := 0
	gemm := child(0, "tensor.gemm", func() {
		for start := time.Now(); calls%64 != 0 || time.Since(start) < 100*time.Millisecond; calls++ {
			tensor.MatMulInto(dst, a, b)
		}
	})
	gemm.Calls = calls
	p.gemmGflops = 2 * float64(m*k*n) * float64(calls) / ((gemm.End - gemm.Start) * 1e3)
	return p, nil
}
