package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/admin"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// echoBackend answers instantly: probs[r][0] echoes x[r][0] (so a caller
// can prove it got its own rows back), winner[r] = r-th row's int(x[r][1]).
type echoBackend struct {
	mu        sync.Mutex
	batches   []int // row count of every batch seen, in dispatch order
	widths    []int
	deadlines []time.Time // each batch's ctx deadline; zero = unbounded
	marks     []float64
	inputs    []*tensor.Tensor // the tensor each batch was handed
	outputs   []*tensor.Tensor // ... and the probs it answered with
}

func (b *echoBackend) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rows := x.Shape[0]
	probs := tensor.New(rows, 4)
	winners := make([]int, rows)
	for r := 0; r < rows; r++ {
		// A near-one-hot distribution keyed on the input so entropy is
		// finite and each row is distinguishable.
		mark := x.RowSlice(r)[0]
		for c := 0; c < 4; c++ {
			probs.RowSlice(r)[c] = 0.01
		}
		probs.RowSlice(r)[0] = 0.97
		probs.RowSlice(r)[1] = 0.01 + mark*1e-9 // carries the mark without breaking normalization much
		winners[r] = int(x.RowSlice(r)[1])
	}
	dl, _ := ctx.Deadline()
	b.mu.Lock()
	b.batches = append(b.batches, rows)
	b.widths = append(b.widths, x.Shape[1])
	b.deadlines = append(b.deadlines, dl)
	b.inputs = append(b.inputs, x)
	b.outputs = append(b.outputs, probs)
	for r := 0; r < rows; r++ {
		b.marks = append(b.marks, x.RowSlice(r)[0])
	}
	b.mu.Unlock()
	return probs, winners, nil
}

// gatedBackend blocks every call until released (or the ctx dies); entered
// (when non-nil, buffered) signals each call the moment it starts, so tests
// can wedge the pipeline deterministically.
type gatedBackend struct {
	gate    chan struct{} // receive one token per call
	entered chan struct{}
	echo    echoBackend
}

func (b *gatedBackend) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	select {
	case <-b.gate:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	return b.echo.InferContext(ctx, x)
}

func row(mark float64, winner int) *tensor.Tensor { return wideRow(mark, winner, 3) }

func wideRow(mark float64, winner, width int) *tensor.Tensor {
	x := tensor.New(1, width)
	x.RowSlice(0)[0] = mark
	x.RowSlice(0)[1] = float64(winner)
	return x
}

// waitFor polls cond: the tests' one way to wait on gateway state.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
	}
}

func queueDepth(gw *Gateway) int64 { return gw.Metrics().Gauge("serve.queue_depth").Value() }

// TestConcurrentScatterOwnership is the core correctness property under
// -race: N goroutines each submit one distinguishable row concurrently, the
// batcher coalesces them arbitrarily, and every caller must get exactly its
// own row's results back.
func TestConcurrentScatterOwnership(t *testing.T) {
	be := &echoBackend{}
	gw := New(be, Config{MaxBatch: 8, Workers: 3})
	defer gw.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mark := float64(i + 1)
			res, err := gw.Predict(context.Background(), row(mark, i%7))
			if err != nil {
				errs[i] = err
				return
			}
			if res.Probs.Shape[0] != 1 || len(res.Winners) != 1 || len(res.Entropy) != 1 {
				errs[i] = fmt.Errorf("row %d: got %d probs rows, %d winners, %d entropies", i, res.Probs.Shape[0], len(res.Winners), len(res.Entropy))
				return
			}
			gotMark := (res.Probs.RowSlice(0)[1] - 0.01) / 1e-9
			if math.Abs(gotMark-mark) > 0.5 {
				errs[i] = fmt.Errorf("row %d: scattered mark %.1f, want %.1f — got another caller's row", i, gotMark, mark)
				return
			}
			if res.Winners[0] != i%7 {
				errs[i] = fmt.Errorf("row %d: winner %d, want %d", i, res.Winners[0], i%7)
				return
			}
			if res.Entropy[0] <= 0 || res.Entropy[0] > math.Log(4)+1e-9 {
				errs[i] = fmt.Errorf("row %d: entropy %v outside (0, ln 4]", i, res.Entropy[0])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}

	// The batcher must actually have coalesced: with 64 rows racing through
	// batches of ≤8, there must be fewer batches than rows.
	be.mu.Lock()
	batches, rows := len(be.batches), 0
	for _, b := range be.batches {
		rows += b
		if b > 8 {
			t.Errorf("batch of %d rows exceeds MaxBatch 8", b)
		}
	}
	be.mu.Unlock()
	if rows != n {
		t.Fatalf("backend saw %d rows, want %d", rows, n)
	}
	if batches == n {
		t.Log("warning: no coalescing happened (every batch had 1 row) — timing-dependent, not failing")
	}
	if got := gw.Metrics().Counter("serve.requests").Value(); got != n {
		t.Fatalf("serve.requests = %d, want %d", got, n)
	}
	if got := gw.Metrics().Counter("serve.batched_rows").Value(); got != n {
		t.Fatalf("serve.batched_rows = %d, want %d", got, n)
	}
	if got := gw.Metrics().ValueHistogram("serve.batch_size").Count(); got != int64(batches) {
		t.Fatalf("serve.batch_size observations = %d, want %d", got, batches)
	}
}

// TestMultiRowRequestScatter submits requests of differing row counts and
// checks each gets its own contiguous block back.
func TestMultiRowRequestScatter(t *testing.T) {
	be := &echoBackend{}
	gw := New(be, Config{MaxBatch: 16, Workers: 2})
	defer gw.Close()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows := 1 + i%3
			x := tensor.New(rows, 3)
			for r := 0; r < rows; r++ {
				x.RowSlice(r)[0] = float64(i*10 + r)
				x.RowSlice(r)[1] = float64((i + r) % 5)
			}
			res, err := gw.Predict(context.Background(), x)
			if err != nil {
				errs[i] = err
				return
			}
			if res.Probs.Shape[0] != rows {
				errs[i] = fmt.Errorf("req %d: %d rows back, want %d", i, res.Probs.Shape[0], rows)
				return
			}
			for r := 0; r < rows; r++ {
				want := float64(i*10 + r)
				got := (res.Probs.RowSlice(r)[1] - 0.01) / 1e-9
				if math.Abs(got-want) > 0.5 {
					errs[i] = fmt.Errorf("req %d row %d: mark %.1f, want %.1f", i, r, got, want)
					return
				}
				if res.Winners[r] != (i+r)%5 {
					errs[i] = fmt.Errorf("req %d row %d: winner %d, want %d", i, r, res.Winners[r], (i+r)%5)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestDeadlineExpiry: a request whose deadline passes while the backend is
// stuck must return ctx's error and count as a timeout; a request already
// expired when the batcher dequeues it is shed without a dispatch.
func TestDeadlineExpiry(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{})}
	gw := New(be, Config{MaxBatch: 1, Workers: 1, QueueSize: 8})
	defer gw.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := gw.Predict(ctx, row(1, 0))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The expiry lands either as a caller-side timeout (Predict's ctx arm
	// won the race) or as a batch error (the backend returned ctx.Err()
	// first and the scatter arm won); both must be counted somewhere.
	counted := gw.Metrics().Counter("serve.timeouts").Value() +
		gw.Metrics().Counter("serve.batch_errors").Value()
	if counted < 1 {
		t.Fatalf("deadline expiry left no trace in serve.timeouts or serve.batch_errors")
	}

	// Unstick the worker (the timed-out batch is still dispatched — its ctx
	// kills it inside the backend) so the next phase has a live pipeline.
	close(be.gate)

	// Pre-expired context: the batcher sheds it at dequeue; the backend
	// never sees its row.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, err = gw.Predict(expired, row(2, 0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want Canceled", err)
	}
	total := gw.Metrics().Counter("serve.shed.expired").Value() +
		gw.Metrics().Counter("serve.timeouts").Value() +
		gw.Metrics().Counter("serve.batch_errors").Value()
	if total < 2 {
		t.Fatalf("expired requests not counted (shed.expired + timeouts + batch_errors = %d)", total)
	}
	// A pre-cancelled request can never win its way into a batch.
	waitFor(t, "the batcher shedding the cancelled request", func() bool {
		return gw.Metrics().Counter("serve.shed.expired").Value() >= 1
	})
	be.echo.mu.Lock()
	defer be.echo.mu.Unlock()
	for _, mark := range be.echo.marks {
		if mark == 2 {
			t.Fatal("the backend was handed the pre-cancelled request's row")
		}
	}
}

func (b *echoBackend) snapshotBatches() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.batches...)
}

// TestQueueFullShed: with the worker wedged and the lane full, admission
// must reject instantly with ErrQueueFull and count the shed.
func TestQueueFullShed(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	gw := New(be, Config{MaxBatch: 1, Workers: 1, QueueSize: 2})
	defer gw.Close()

	// Wedge the pipeline step by step so admission cannot race the batcher:
	// the worker blocks in the backend, the batcher blocks handing over the
	// next batch, then the lane fills to QueueSize.
	var wg sync.WaitGroup
	results := make(chan error, 16)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := gw.Predict(ctx, row(float64(i), 0))
			results <- err
		}()
	}
	submit(0)
	<-be.entered // request 0 is inside the backend; the worker is wedged
	submit(1)
	// Request 1 dequeued means the batcher holds it, blocked on dispatch —
	// the pipeline is wedged.
	waitFor(t, "the batcher picking up request 1", func() bool { return gw.dequeued.Load() == 2 })
	submit(2)
	submit(3)
	waitFor(t, "the queue filling", func() bool { return queueDepth(gw) == 2 })
	start := time.Now()
	_, err := gw.Predict(context.Background(), row(99, 0))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatalf("shed took %v; admission must reject instantly", time.Since(start))
	}
	if got := gw.Metrics().Counter("serve.shed.queue_full").Value(); got < 1 {
		t.Fatalf("serve.shed.queue_full = %d, want >= 1", got)
	}
	close(be.gate) // let the wedged requests finish
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("wedged request finished with %v", err)
		}
	}
}

// TestPriorityLane: with the pipeline wedged and both lanes populated, the
// high-priority request must reach the backend before the earlier-queued
// normal one.
func TestPriorityLane(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{}, 16)}
	gw := New(be, Config{MaxBatch: 1, Workers: 1, QueueSize: 8})
	defer gw.Close()

	// Wedge: request A occupies the worker; request B sits in the batcher
	// blocked on dispatch. Everything queued after that is still in lanes.
	var wg sync.WaitGroup
	submit := func(mark float64, p Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gw.PredictOpts(context.Background(), row(mark, 0), Options{Priority: p})
		}()
	}
	submit(1, PriorityNormal) // → worker
	submit(2, PriorityNormal) // → batcher, blocked on dispatch
	waitFor(t, "the pipeline wedging", func() bool { return gw.dequeued.Load() == 2 })
	submit(3, PriorityNormal)
	submit(4, PriorityNormal)
	// Ensure the normal requests are queued before the high one arrives.
	waitFor(t, "the normal lane filling", func() bool { return queueDepth(gw) == 2 })
	submit(9, PriorityHigh)
	waitFor(t, "the high lane filling", func() bool { return queueDepth(gw) == 3 })
	for i := 0; i < 5; i++ {
		be.gate <- struct{}{}
	}
	wg.Wait()

	be.echo.mu.Lock()
	marks := append([]float64(nil), be.echo.marks...)
	be.echo.mu.Unlock()
	if len(marks) != 5 {
		t.Fatalf("backend saw %d rows, want 5 (marks %v)", len(marks), marks)
	}
	// Marks 1 and 2 were already past the lanes; among the remaining three,
	// the high-priority 9 must come first.
	if marks[2] != 9 {
		t.Fatalf("dispatch order %v: high-priority mark 9 should be third (first out of the lanes after the wedge)", marks)
	}
}

// TestBatchDeadlinePropagation: members that queue behind a busy worker
// leave as ONE batch whose context carries the latest member deadline when
// all members have one, and none otherwise.
func TestBatchDeadlinePropagation(t *testing.T) {
	gw, be, release := wedged(t, Config{MaxBatch: 4, Workers: 1})

	// Members with deadlines ~1s, ~5s and ~3s out → batch deadline is the
	// latest one.
	var wg sync.WaitGroup
	submit := func(d time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if d > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, d)
				defer cancel()
			}
			if _, err := gw.Predict(ctx, row(1, 0)); err != nil {
				t.Error(err)
			}
		}()
	}
	sent := time.Now()
	for _, d := range []time.Duration{time.Second, 5 * time.Second, 3 * time.Second} {
		submit(d)
	}
	waitFor(t, "the three members joining the batch", func() bool { return gw.dequeued.Load() == 4 })
	// The holder's batch finishes; the worker comes back for the members'
	// batch and sticks in the backend again, so phase two coalesces too.
	release(1)
	<-be.entered
	submit(time.Second)
	submit(0) // no deadline: unbounds its batch
	waitFor(t, "the two members joining the batch", func() bool { return gw.dequeued.Load() == 6 })
	release(2)
	wg.Wait()

	be.echo.mu.Lock()
	defer be.echo.mu.Unlock()
	if got := be.echo.batches; len(got) != 3 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("batches of %v rows, want the holder, then 3 rows as one batch, then 2", got)
	}
	if dl := be.echo.deadlines[1]; dl.Before(sent.Add(5*time.Second)) || dl.After(time.Now().Add(5*time.Second)) {
		t.Fatalf("batch deadline %v after submit; want the LATEST member deadline (5s)", dl.Sub(sent))
	}
	if dl := be.echo.deadlines[2]; !dl.IsZero() {
		t.Fatalf("batch with an unbounded member still carried deadline %v", dl)
	}
}

type backendFunc func(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error)

func (f backendFunc) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	return f(ctx, x)
}

// TestBackendErrorScatters: a failed batch fails every member with the
// backend's error and counts one batch error.
func TestBackendErrorScatters(t *testing.T) {
	boom := errors.New("boom")
	be := backendFunc(func(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
		return nil, nil, boom
	})
	gw := New(be, Config{MaxBatch: 4, Workers: 1})
	defer gw.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := gw.Predict(context.Background(), row(1, 0)); !errors.Is(err, boom) {
				t.Errorf("err = %v, want boom", err)
			}
		}()
	}
	wg.Wait()
	if got := gw.Metrics().Counter("serve.batch_errors").Value(); got < 1 {
		t.Fatalf("serve.batch_errors = %d, want >= 1", got)
	}
}

// panicOnceQuorum is a DegradedBackend whose partial-ensemble path panics on
// its first call and then answers a full quorum.
type panicOnceQuorum struct {
	backendFunc
	calls atomic.Int64
}

func (b *panicOnceQuorum) InferQuorumContext(ctx context.Context, x *tensor.Tensor, _ time.Duration) (*tensor.Tensor, []int, int, int, error) {
	if b.calls.Add(1) == 1 {
		panic("matmul inner dimensions differ")
	}
	probs, winners, err := b.backendFunc(ctx, x)
	return probs, winners, 2, 2, err
}

// TestBackendPanicScatters: a backend that panics (a wrong-width batch
// blows up deep in the math layers) must not kill the worker — the panic
// becomes that batch's error, it is counted, and the gateway keeps
// serving subsequent batches. One guard covers both backend paths, the
// strict one and the degraded gateway's partial-ensemble one.
func TestBackendPanicScatters(t *testing.T) {
	answer := func(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
		return tensor.New(x.Shape[0], 2), make([]int, x.Shape[0]), nil
	}
	var calls atomic.Int64
	strict := backendFunc(func(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
		if calls.Add(1) == 1 {
			panic("matmul inner dimensions differ")
		}
		return answer(ctx, x)
	})
	for _, leg := range []struct {
		name     string
		be       Backend
		degraded bool
	}{
		{"strict", strict, false},
		{"degraded", &panicOnceQuorum{backendFunc: answer}, true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			gw := New(leg.be, Config{MaxBatch: 1, Workers: 1, Degraded: leg.degraded})
			defer gw.Close()
			if _, err := gw.Predict(context.Background(), row(1, 0)); err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("err = %v, want inference panic error", err)
			}
			if got := gw.Metrics().Counter("serve.panics").Value(); got != 1 {
				t.Fatalf("serve.panics = %d, want 1", got)
			}
			if got := gw.Metrics().Counter("serve.batch_errors").Value(); got != 1 {
				t.Fatalf("serve.batch_errors = %d, want 1", got)
			}
			// The worker survived: the next request goes through normally.
			if _, err := gw.Predict(context.Background(), row(2, 0)); err != nil {
				t.Fatalf("request after panic failed: %v", err)
			}
		})
	}
}

// TestInputValidation rejects malformed tensors and oversized requests.
func TestInputValidation(t *testing.T) {
	gw := New(&echoBackend{}, Config{MaxBatch: 4})
	defer gw.Close()
	if _, err := gw.Predict(context.Background(), nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := gw.Predict(context.Background(), tensor.New(5, 3)); !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("oversized request: err = %v, want ErrTooManyRows", err)
	}
}

// TestCloseFailsPending: Close fails queued requests with ErrClosed and
// Predict after Close rejects.
func TestCloseFailsPending(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{})}
	gw := New(be, Config{MaxBatch: 1, Workers: 1, QueueSize: 8})
	var wg sync.WaitGroup
	errsc := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Short deadline: Close lets the in-flight batch finish, and that
			// batch is wedged in the gated backend until its ctx expires.
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_, err := gw.Predict(ctx, row(1, 0))
			errsc <- err
		}()
	}
	waitFor(t, "all four requests arriving", func() bool { return gw.Metrics().Counter("serve.requests").Value() == 4 })
	done := make(chan struct{})
	go func() { gw.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on pending requests")
	}
	wg.Wait()
	close(errsc)
	for err := range errsc {
		if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("pending request got %v, want ErrClosed", err)
		}
	}
	if _, err := gw.Predict(context.Background(), row(1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Predict after Close: err = %v, want ErrClosed", err)
	}
}

// TestMetricsOnAdminEndpoint drives overload through the gateway and checks
// the shed/timeout counters and batch-size histogram are scrapable on a
// real /metrics page — the ISSUE's observability acceptance criterion.
func TestMetricsOnAdminEndpoint(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{}, 64)}
	gw := New(be, Config{MaxBatch: 1, Workers: 1, QueueSize: 1})
	defer gw.Close()

	adm := admin.New()
	adm.Add(gw.Metrics())
	addr, err := adm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()

	// One success (batch histogram), one timeout, and queue-full sheds.
	be.gate <- struct{}{}
	if _, err := gw.Predict(context.Background(), row(1, 0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gw.Predict(ctx, row(2, 0))
		}()
	}
	wg.Wait()
	cancel()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		"teamnet_serve_requests",
		"teamnet_serve_batch_size_bucket",
		"teamnet_serve_batch_size_count",
		"teamnet_serve_e2e",
		"teamnet_serve_queue_wait",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Under this overload either sheds or timeouts (or both) must be > 0
	// and visible.
	sheds := gw.Metrics().Counter("serve.shed.queue_full").Value() + gw.Metrics().Counter("serve.shed.expired").Value()
	timeouts := gw.Metrics().Counter("serve.timeouts").Value()
	if sheds+timeouts == 0 {
		t.Fatal("overload produced neither sheds nor timeouts")
	}
	if sheds > 0 && !strings.Contains(page, "teamnet_serve_shed_") {
		t.Error("/metrics missing shed counters despite sheds")
	}
	if timeouts > 0 && !strings.Contains(page, "teamnet_serve_timeouts") {
		t.Error("/metrics missing teamnet_serve_timeouts despite timeouts")
	}
}

// TestBatchSpanTree: with a tracer installed, a dispatched batch records a
// "serve.batch" span whose children include one "serve.request" per member
// (each with a "queue.wait" child) and the backend's own subtree.
func TestBatchSpanTree(t *testing.T) {
	be := backendFunc(func(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
		// A backend-side span must nest under the batch span via the
		// ambient trace context, like Master.InferContext's "infer" root.
		parent := trace.FromContext(ctx)
		if !parent.Valid() {
			return nil, nil, errors.New("no trace context reached the backend")
		}
		probs := tensor.New(x.Shape[0], 2)
		for r := 0; r < x.Shape[0]; r++ {
			probs.RowSlice(r)[0], probs.RowSlice(r)[1] = 0.5, 0.5
		}
		return probs, make([]int, x.Shape[0]), nil
	})
	gw := New(be, Config{MaxBatch: 4, Workers: 1})
	defer gw.Close()
	tr := trace.New("gw", 0)
	gw.SetTracer(tr)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := gw.Predict(context.Background(), row(1, 0)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	spans := tr.Snapshot(0)
	var batchID uint64
	var reqSpans, waitSpans int
	for _, s := range spans {
		if s.Name == "serve.batch" {
			batchID = s.SpanID
		}
	}
	if batchID == 0 {
		t.Fatalf("no serve.batch span recorded; spans: %+v", spans)
	}
	reqIDs := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == "serve.request" && s.ParentID != 0 {
			reqSpans++
			reqIDs[s.SpanID] = true
		}
	}
	for _, s := range spans {
		if s.Name == "queue.wait" && reqIDs[s.ParentID] {
			waitSpans++
		}
	}
	if reqSpans != 3 {
		t.Fatalf("recorded %d serve.request spans, want 3", reqSpans)
	}
	if waitSpans != 3 {
		t.Fatalf("recorded %d queue.wait spans under requests, want 3", waitSpans)
	}
}

// TestHTTPPredictRoundTrip exercises the JSON endpoint end to end against
// the echo backend, including the error-status mapping.
func TestHTTPPredictRoundTrip(t *testing.T) {
	gw := New(&echoBackend{}, Config{MaxBatch: 4, Workers: 1})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/predict", "application/json",
		strings.NewReader(`{"x": [[7, 2, 0]], "timeout_ms": 2000}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{`"probs"`, `"winners":[2]`, `"entropy"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("response %s missing %s", body, want)
		}
	}

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"empty rows", `{"x": []}`, http.StatusBadRequest},
		{"ragged", `{"x": [[1,2],[1]]}`, http.StatusBadRequest},
		{"bad json", `{"x": [[1,2]`, http.StatusBadRequest},
		{"unknown field", `{"x": [[1,2]], "bogus": 1}`, http.StatusBadRequest},
		{"oversized", `{"x": [[1],[1],[1],[1],[1]]}`, http.StatusBadRequest},
		{"empty row", `{"x": [[]]}`, http.StatusBadRequest},
		{"method", "", http.StatusMethodNotAllowed},
	} {
		var resp *http.Response
		var err error
		if tc.name == "method" {
			resp, err = http.Get(srv.URL + "/predict")
		} else {
			resp, err = http.Post(srv.URL+"/predict", "application/json", strings.NewReader(tc.body))
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestHTTPPredictBodyTooLarge: a body past maxPredictBody is answered 413
// with the JSON error body — not cut off at the limit and then reported as
// malformed JSON, which is what a silent io.LimitReader made of it.
func TestHTTPPredictBodyTooLarge(t *testing.T) {
	gw := New(&echoBackend{}, Config{MaxBatch: 4, Workers: 1})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	// Well-formed, and padded with legal whitespace past the limit.
	body := `{"x":[[0` + strings.Repeat(" ", maxPredictBody) + `]]}`
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "too large") {
		t.Fatalf("error body %+v (decode: %v), want a JSON error naming the size", e, err)
	}
}

// TestHTTPStatusMapping maps gateway errors onto HTTP statuses.
func TestHTTPStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusGatewayTimeout},
		{fmt.Errorf("wrapped: %w", ErrQueueFull), http.StatusTooManyRequests},
		{errors.New("backend exploded"), http.StatusInternalServerError},
	} {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
