package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Degraded-mode, brownout, and Retry-After tests: the gateway half of the
// SLO-defense layer. A partial ensemble answers with quorum metadata
// instead of a 5xx, the brownout controller tightens the batcher when the
// SLO burn rises, and rejected clients get a drain-rate-derived backoff
// hint. All run under -race via the verify target.

// quorumBackend implements DegradedBackend over the echo fake: the quorum
// path reports a scripted live/total and counts which path served.
type quorumBackend struct {
	echo        echoBackend
	live, total int
	soft        atomic.Int64 // last soft deadline seen, ns
	quorumCalls atomic.Int64
	strictCalls atomic.Int64
}

func (b *quorumBackend) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	b.strictCalls.Add(1)
	return b.echo.InferContext(ctx, x)
}

func (b *quorumBackend) InferQuorumContext(ctx context.Context, x *tensor.Tensor, soft time.Duration) (*tensor.Tensor, []int, int, int, error) {
	b.quorumCalls.Add(1)
	b.soft.Store(int64(soft))
	probs, winners, err := b.echo.InferContext(ctx, x)
	return probs, winners, b.live, b.total, err
}

// TestDegradedScatter: with Config.Degraded set and the backend reporting a
// thinned ensemble, every caller's Result carries the degraded flag and the
// quorum counts, and serve.degraded counts one per degraded request.
func TestDegradedScatter(t *testing.T) {
	be := &quorumBackend{live: 2, total: 3}
	gw := New(be, Config{MaxBatch: 4, Degraded: true})
	defer gw.Close()

	res, err := gw.Predict(context.Background(), row(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Live != 2 || res.Nodes != 3 {
		t.Fatalf("Result = degraded:%v live:%d nodes:%d, want degraded 2/3", res.Degraded, res.Live, res.Nodes)
	}
	if be.quorumCalls.Load() == 0 || be.strictCalls.Load() != 0 {
		t.Fatalf("dispatch took the wrong path: quorum=%d strict=%d", be.quorumCalls.Load(), be.strictCalls.Load())
	}
	if got := gw.Metrics().Counter("serve.degraded").Value(); got != 1 {
		t.Fatalf("serve.degraded = %d, want 1", got)
	}

	// Full quorum is not degraded.
	be.live, be.total = 3, 3
	res, err = gw.Predict(context.Background(), row(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("full-quorum answer flagged degraded")
	}
	if got := gw.Metrics().Counter("serve.degraded").Value(); got != 1 {
		t.Fatalf("serve.degraded moved to %d on a full answer", got)
	}
}

// TestDegradedOffUsesStrictPath: without the opt-in the gateway ignores the
// DegradedBackend capability entirely.
func TestDegradedOffUsesStrictPath(t *testing.T) {
	be := &quorumBackend{live: 1, total: 3}
	gw := New(be, Config{MaxBatch: 4})
	defer gw.Close()
	res, err := gw.Predict(context.Background(), row(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || be.quorumCalls.Load() != 0 || be.strictCalls.Load() == 0 {
		t.Fatalf("Degraded:false still used the quorum path (quorum=%d strict=%d)", be.quorumCalls.Load(), be.strictCalls.Load())
	}
}

// TestQuorumSoftFromDeadline: the soft deadline handed to the backend is a
// strict fraction of the batch's remaining time, so the partial answer is
// assembled before the caller gives up — and absent a deadline it is zero.
func TestQuorumSoftFromDeadline(t *testing.T) {
	be := &quorumBackend{live: 1, total: 1}
	gw := New(be, Config{MaxBatch: 4, Degraded: true})
	defer gw.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := gw.Predict(ctx, row(1, 0)); err != nil {
		t.Fatal(err)
	}
	soft := time.Duration(be.soft.Load())
	if soft <= 0 || soft >= time.Second {
		t.Fatalf("soft deadline %v, want in (0, 1s) for a 1s caller deadline", soft)
	}

	if _, err := gw.Predict(context.Background(), row(2, 0)); err != nil {
		t.Fatal(err)
	}
	if soft := time.Duration(be.soft.Load()); soft != 0 {
		t.Fatalf("soft deadline %v without a caller deadline, want 0", soft)
	}
}

// TestHTTPDegradedResponse: the JSON front end surfaces the degraded flag
// and quorum block, and omits both on full answers.
func TestHTTPDegradedResponse(t *testing.T) {
	be := &quorumBackend{live: 2, total: 3}
	gw := New(be, Config{MaxBatch: 4, Degraded: true})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	body := `{"x": [[1, 0, 0]]}`
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Degraded || pr.Quorum == nil || pr.Quorum.Live != 2 || pr.Quorum.Nodes != 3 {
		t.Fatalf("degraded JSON = %+v, want degraded with quorum 2/3", pr)
	}

	be.live, be.total = 3, 3
	resp2, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var full map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	if _, present := full["degraded"]; present {
		t.Fatal("full answer carried a degraded field")
	}
	if _, present := full["quorum"]; present {
		t.Fatal("full answer carried a quorum block")
	}
}

// TestHTTPRetryAfterOnShed: a 429 must carry a Retry-After header of at
// least one whole second so naive clients back off instead of hammering.
func TestHTTPRetryAfterOnShed(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	gw := New(be, Config{MaxBatch: 1, QueueSize: 1, Workers: 1})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	// Wedge the worker on one request, then fill the one-slot queue.
	errc := make(chan error, 8)
	post := func() {
		resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"x": [[1, 0, 0]], "timeout_ms": 30000}`))
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}
	go post()
	<-be.entered // the first request is mid-inference: the worker is busy
	go post()    // occupies the queue slot

	// Probe until the shed: each probe carries its own short deadline so a
	// probe that slips into the queue instead of shedding cannot block the
	// loop — it 504s and then occupies the lane for the next probe to trip
	// over.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"x": [[1, 0, 0]], "timeout_ms": 300}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			ra := resp.Header.Get("Retry-After")
			resp.Body.Close()
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 {
				t.Fatalf("Retry-After = %q, want whole seconds ≥ 1", ra)
			}
			var eresp errorResponse
			// Re-check the JSON error body contract on a fresh shed.
			resp2, err2 := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"x": [[1, 0, 0]], "timeout_ms": 300}`))
			if err2 != nil {
				t.Fatal(err2)
			}
			if resp2.StatusCode == http.StatusTooManyRequests {
				if err := json.NewDecoder(resp2.Body).Decode(&eresp); err != nil || eresp.Error == "" {
					t.Fatalf("429 body not a JSON error object: %v", err)
				}
			}
			resp2.Body.Close()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("queue never filled: no 429 observed")
		}
	}
	close(be.gate) // unwedge and let the two pending requests finish
	<-errc
	<-errc
}

// TestRetryAfterEstimate: the estimate is depth over the smoothed drain
// rate, clamped into [1s, 30s], with a 1s floor when nothing has drained.
func TestRetryAfterEstimate(t *testing.T) {
	gw := New(&echoBackend{}, Config{})
	defer gw.Close()

	if got := gw.RetryAfter(); got != time.Second {
		t.Fatalf("cold RetryAfter = %v, want the 1s floor", got)
	}

	// Pin the internals: 50 queued, draining at 10/s → 5s.
	gw.metrics.Gauge("serve.queue_depth").Set(50)
	gw.drainMu.Lock()
	gw.drainRate = 10
	gw.drainT = time.Now()
	gw.drainMu.Unlock()
	if got := gw.RetryAfter(); got != 5*time.Second {
		t.Fatalf("RetryAfter = %v for depth 50 at 10/s, want 5s", got)
	}

	// A glacial drain clamps at 30s.
	gw.drainMu.Lock()
	gw.drainRate = 0.01
	gw.drainT = time.Now()
	gw.drainMu.Unlock()
	if got := gw.RetryAfter(); got != 30*time.Second {
		t.Fatalf("RetryAfter = %v, want the 30s ceiling", got)
	}
	gw.metrics.Gauge("serve.queue_depth").Set(0)
}

// TestBrownoutTightensAndRelaxes: a burst of SLO-missing traffic must step
// the controller's level up (shrinking the effective queue cap),
// and quiet windows must walk it back down to zero.
func TestBrownoutTightensAndRelaxes(t *testing.T) {
	be := &backendDelay{d: 20 * time.Millisecond}
	gw := New(be, Config{
		MaxBatch:  4,
		QueueSize: 64,
		Workers:   4,
		SLOTarget: time.Millisecond, // everything misses: burn = 1
	})
	defer gw.Close()

	// Keep >=20 finished-per-window flowing until the controller reacts.
	deadline := time.Now().Add(10 * time.Second)
	for gw.metrics.Gauge("serve.brownout_level").Value() == 0 {
		done := make(chan struct{}, 8)
		for i := 0; i < 8; i++ {
			go func() {
				gw.Predict(context.Background(), row(1, 0)) //nolint:errcheck
				done <- struct{}{}
			}()
		}
		for i := 0; i < 8; i++ {
			<-done
		}
		if time.Now().After(deadline) {
			t.Fatal("brownout level never rose under 100% SLO burn")
		}
	}
	if got := gw.Metrics().Counter("serve.brownout.tightened").Value(); got == 0 {
		t.Fatal("tightening left no counter trace")
	}
	level := gw.level.Load()
	if eff := gw.effQueue.Load(); eff != int64(64>>level) {
		t.Fatalf("effective queue cap %d at level %d, want %d", eff, level, 64>>level)
	}

	// Silence: with no evidence the controller must relax back to zero.
	deadline = time.Now().Add(10 * time.Second)
	for gw.metrics.Gauge("serve.brownout_level").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("brownout level stuck at %d after traffic stopped", gw.metrics.Gauge("serve.brownout_level").Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := gw.Metrics().Counter("serve.brownout.relaxed").Value(); got == 0 {
		t.Fatal("relaxation left no counter trace")
	}
	if eff := gw.effQueue.Load(); eff != 64 {
		t.Fatalf("effective queue cap %d after full relax, want 64", eff)
	}
}

// backendDelay answers correctly but slowly — SLO-missing by construction.
type backendDelay struct {
	d    time.Duration
	echo echoBackend
}

func (b *backendDelay) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	select {
	case <-time.After(b.d):
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	return b.echo.InferContext(ctx, x)
}
