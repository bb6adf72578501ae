package serve

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Tests of the work-conserving batcher. None of them leans on a clock: a
// gated backend holds the dispatch workers, requests queue behind them, and
// the gateway's own dequeue count and queue-depth gauge say when the
// batcher has taken what the test submitted.

// wedged starts a gateway over a gated backend and parks one request inside
// the backend on every dispatch worker, so whatever is submitted next has
// to queue: the deterministic way to make requests coalesce. release(n)
// lets n backend calls finish.
func wedged(t *testing.T, cfg Config) (gw *Gateway, be *gatedBackend, release func(n int)) {
	t.Helper()
	be = &gatedBackend{gate: make(chan struct{}, 64), entered: make(chan struct{}, 64)}
	gw = New(be, cfg)
	var holders sync.WaitGroup
	for i := 0; i < gw.cfg.Workers; i++ {
		holders.Add(1)
		go func() {
			defer holders.Done()
			gw.Predict(context.Background(), row(-1, 0)) //nolint:errcheck // the holder's answer is not the test's subject
		}()
		<-be.entered
	}
	t.Cleanup(func() {
		close(be.gate)
		gw.Close()
		holders.Wait()
	})
	return gw, be, func(n int) {
		for i := 0; i < n; i++ {
			be.gate <- struct{}{}
		}
	}
}

// submitRows sends one single-row request per mark, concurrently, and
// returns the group to wait on; a failed request fails the test.
func submitRows(t *testing.T, gw *Gateway, opts Options, marks ...float64) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, m := range marks {
		wg.Add(1)
		go func(m float64) {
			defer wg.Done()
			if _, err := gw.PredictOpts(context.Background(), row(m, 0), opts); err != nil {
				t.Errorf("request %v: %v", m, err)
			}
		}(m)
	}
	return &wg
}

// wantFlushes checks why batches left the batcher. The batcher counts a
// flush after the hand-off, so a caller can have its answer a moment before
// the count lands: wait for it.
func wantFlushes(t *testing.T, gw *Gateway, idle, full, width int64) {
	t.Helper()
	c := gw.Metrics()
	got := func() [3]int64 {
		return [3]int64{c.Counter("serve.flush.worker_idle").Value(), c.Counter("serve.flush.full").Value(), c.Counter("serve.flush.width").Value()}
	}
	want := [3]int64{idle, full, width}
	for deadline := time.Now().Add(5 * time.Second); got() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("flush reasons idle/full/width = %v, want %v", got(), want)
		}
	}
}

// TestLoneRequestLeavesAtOnce: on an idle gateway with the defaults
// teamnet-serve runs with, every request is its own batch, flushed because a
// worker was idle — there is nothing to wait for and nothing waits.
func TestLoneRequestLeavesAtOnce(t *testing.T) {
	be := &echoBackend{}
	gw := New(be, Config{})
	defer gw.Close()
	for i := 1; i <= 3; i++ {
		if _, err := gw.Predict(context.Background(), row(float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := be.snapshotBatches(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("backend saw batches of %v rows, want three batches of 1", got)
	}
	wantFlushes(t, gw, 3, 0, 0)
	if h := gw.Metrics().ValueHistogram("serve.batch_size"); h.Count() != 3 || h.Sum() != 3 {
		t.Fatalf("serve.batch_size saw %d batches / %d rows, want 3 / 3", h.Count(), h.Sum())
	}
	if got := gw.Metrics().Histogram("serve.dispatch_wait").Count(); got != 3 {
		t.Fatalf("serve.dispatch_wait observed %d dispatches, want 3", got)
	}
}

// TestBatchesFormWhileWorkersAreBusy: with the only worker held, 40 queued
// single rows leave as 16, 16, 8 once it is released — full batches because
// they filled, the remainder because the worker came back.
func TestBatchesFormWhileWorkersAreBusy(t *testing.T) {
	gw, be, release := wedged(t, Config{MaxBatch: 16, Workers: 1})
	marks := make([]float64, 40)
	for i := range marks {
		marks[i] = float64(i + 1)
	}
	wg := submitRows(t, gw, Options{}, marks...)
	// 16 rows fill the batch the batcher is offering; the other 24 stay queued.
	waitFor(t, "40 rows queueing behind the held worker", func() bool {
		return gw.dequeued.Load() == 17 && queueDepth(gw) == 24
	})
	release(4)
	wg.Wait()
	if got := be.echo.snapshotBatches(); !reflect.DeepEqual(got, []int{1, 16, 16, 8}) {
		t.Fatalf("batches of %v rows, want [1 16 16 8]", got)
	}
	wantFlushes(t, gw, 2, 2, 0)
}

// TestHighLaneLeadsNextBatch: a high-priority request that arrives behind
// queued normal ones is the first row of the next batch.
func TestHighLaneLeadsNextBatch(t *testing.T) {
	gw, be, release := wedged(t, Config{MaxBatch: 2, Workers: 1})
	wg := submitRows(t, gw, Options{}, 1, 2)
	waitFor(t, "the offered batch filling", func() bool { return gw.dequeued.Load() == 3 })
	wg2 := submitRows(t, gw, Options{}, 3, 4)
	waitFor(t, "the normal lane filling", func() bool { return queueDepth(gw) == 2 })
	wg3 := submitRows(t, gw, Options{Priority: PriorityHigh}, 9)
	waitFor(t, "the high lane filling", func() bool { return queueDepth(gw) == 3 })
	release(4)
	wg.Wait()
	wg2.Wait()
	wg3.Wait()

	be.echo.mu.Lock()
	defer be.echo.mu.Unlock()
	if !reflect.DeepEqual(be.echo.batches, []int{1, 2, 2, 1}) {
		t.Fatalf("batches of %v rows, want [1 2 2 1]", be.echo.batches)
	}
	// marks: holder, {1,2} in either order, then the batch the high request leads.
	if m := be.echo.marks; m[3] != 9 {
		t.Fatalf("dispatch order %v: high-priority mark 9 should lead the batch after the wedge", m)
	}
}

// TestWidthChangeFlushesAndLeads: a request of another feature width cuts
// the current batch short and leads the next one; nothing joins a batch
// that is only waiting for a worker.
func TestWidthChangeFlushesAndLeads(t *testing.T) {
	gw, be, release := wedged(t, Config{MaxBatch: 16, Workers: 1})
	var wg sync.WaitGroup
	submit := func(x *tensor.Tensor) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := gw.Predict(context.Background(), x); err != nil {
				t.Error(err)
			}
		}()
	}
	submit(wideRow(1, 0, 3))
	waitFor(t, "the 3-wide row joining", func() bool { return gw.dequeued.Load() == 2 })
	submit(wideRow(2, 0, 5))
	waitFor(t, "the 5-wide row being held", func() bool { return gw.dequeued.Load() == 3 })
	submit(wideRow(3, 0, 3))
	waitFor(t, "the second 3-wide row queueing", func() bool { return queueDepth(gw) == 1 })
	release(4)
	wg.Wait()

	be.echo.mu.Lock()
	defer be.echo.mu.Unlock()
	if !reflect.DeepEqual(be.echo.widths, []int{3, 3, 5, 3}) || !reflect.DeepEqual(be.echo.marks, []float64{-1, 1, 2, 3}) {
		t.Fatalf("batches of widths %v carrying marks %v, want widths [3 3 5 3] and marks in arrival order", be.echo.widths, be.echo.marks)
	}
	// Both the 3-wide batch (cut by the 5) and the 5-wide one (cut by the
	// next 3) left on a width change.
	wantFlushes(t, gw, 2, 0, 2)
}

// TestCloseDuringWorkerWait: Close while a batch waits for a worker answers
// every member, the request held over for the next batch, and everything
// still queued with ErrClosed — exactly once each.
func TestCloseDuringWorkerWait(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	gw := New(be, Config{MaxBatch: 4, Workers: 1})
	holder := make(chan struct{})
	go func() {
		defer close(holder)
		gw.Predict(context.Background(), row(-1, 0)) //nolint:errcheck // wedges the worker; its answer is not the subject
	}()
	<-be.entered

	// Queue by hand so the test owns the reply channels: nobody else reads
	// them, so a second reply could not go unnoticed.
	enqueue := func(x *tensor.Tensor) *request {
		r := &request{x: x, ctx: context.Background(), enq: time.Now(), resc: make(chan response, 1)}
		gw.lanes[laneIdx(PriorityNormal)] <- r
		gw.metrics.Gauge("serve.queue_depth").Inc()
		return r
	}
	reqs := []*request{enqueue(row(1, 0)), enqueue(row(2, 0)), enqueue(row(3, 0))}
	waitFor(t, "three members joining the batch", func() bool { return gw.dequeued.Load() == 4 })
	reqs = append(reqs, enqueue(wideRow(4, 0, 5))) // held for the next batch
	waitFor(t, "the width change being held", func() bool { return gw.dequeued.Load() == 5 })
	reqs = append(reqs, enqueue(row(5, 0))) // stays in the lane

	closed := make(chan struct{})
	go func() { gw.Close(); close(closed) }()
	for i, r := range reqs {
		select {
		case resp := <-r.resc:
			if !errors.Is(resp.err, ErrClosed) {
				t.Fatalf("request %d answered %v, want ErrClosed", i+1, resp.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered after Close", i+1)
		}
	}
	close(be.gate) // the in-flight holder finishes; Close can return
	<-closed
	<-holder
	for i, r := range reqs {
		if len(r.resc) != 0 {
			t.Fatalf("request %d was answered twice", i+1)
		}
	}
}

// TestBatchTensorOwnership: a batch of several requests computes on a fresh
// tensor holding their rows in arrival order; a batch of one computes on the
// caller's own tensor — same backing array, no gather copy — and gets the
// backend's answer back without a scatter copy. No caller's tensor changes
// either way.
func TestBatchTensorOwnership(t *testing.T) {
	gw, be, release := wedged(t, Config{MaxBatch: 16, Workers: 1})
	marked := func(first float64, rows int) *tensor.Tensor {
		x := tensor.New(rows, 3)
		for r := 0; r < rows; r++ {
			x.RowSlice(r)[0] = first + float64(r)
		}
		return x
	}
	var wg sync.WaitGroup
	var callers, sent []*tensor.Tensor
	results := make([]Result, 4)
	for i, x := range []*tensor.Tensor{marked(10, 2), marked(20, 1), marked(30, 3), marked(40, 16)} {
		callers, sent = append(callers, x), append(sent, x.Clone())
		if i == 3 { // alone on the idle gateway once the others are answered
			release(3) // the holder, the three-request batch, this request
			wg.Wait()
			var err error
			if results[i], err = gw.Predict(context.Background(), x); err != nil {
				t.Fatal(err)
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if results[i], err = gw.Predict(context.Background(), x); err != nil {
				t.Error(err)
			}
		}()
		// The first three queue one by one behind the held worker.
		waitFor(t, "the request joining the offered batch", func() bool { return gw.dequeued.Load() == int64(2+i) })
	}

	be.echo.mu.Lock()
	defer be.echo.mu.Unlock()
	if !reflect.DeepEqual(be.echo.batches, []int{1, 6, 16}) {
		t.Fatalf("batches of %v rows, want [1 6 16]", be.echo.batches)
	}
	gathered, lone := be.echo.inputs[1], be.echo.inputs[2]
	for _, x := range callers {
		if &gathered.Data[0] == &x.Data[0] {
			t.Fatal("a three-request batch computed on one caller's tensor")
		}
	}
	want := tensor.ConcatRows(sent[0], sent[1], sent[2])
	if !reflect.DeepEqual(gathered.Data, want.Data) {
		t.Fatalf("three-request batch rows %v, want the callers' rows in arrival order %v", gathered.Data, want.Data)
	}
	if lone != callers[3] || &lone.Data[0] != &callers[3].Data[0] {
		t.Fatal("a one-request batch did not compute on the caller's own tensor")
	}
	if results[0].Probs == be.echo.outputs[1] || results[3].Probs != be.echo.outputs[2] {
		t.Fatal("want a scatter copy for a member of a three-request batch, the backend's own answer for a batch of one")
	}
	for i, x := range callers {
		if !reflect.DeepEqual(x, sent[i]) {
			t.Fatalf("caller %d's tensor changed while it was served", i)
		}
	}
}

// TestLoneBatchCopiesNoTensor: a 16-row request on an idle gateway is a batch
// of one, so it allocates less than the 100 KB its gather copy used to cost.
func TestLoneBatchCopiesNoTensor(t *testing.T) {
	gw := New(&echoBackend{}, Config{})
	defer gw.Close()
	x := tensor.New(16, 784)
	predict := func() {
		if _, err := gw.Predict(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		predict()
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		predict()
	}
	runtime.ReadMemStats(&after)
	if per, gather := (after.TotalAlloc-before.TotalAlloc)/n, uint64(8*x.Size()); per >= gather {
		t.Fatalf("a 16-row Predict allocates %d bytes, not less than its %d-byte tensor", per, gather)
	}
}
