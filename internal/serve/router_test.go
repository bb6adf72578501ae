package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Router tests: least-loaded selection, failover-with-cooldown, and the
// quorum fallback for targets without degraded support.

// routeBackend counts calls and can be set to fail or stall.
type routeBackend struct {
	mu    sync.Mutex
	calls int
	fail  error
	delay time.Duration
	echo  echoBackend
}

func (b *routeBackend) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	b.mu.Lock()
	b.calls++
	fail := b.fail
	delay := b.delay
	b.mu.Unlock()
	if fail != nil {
		return nil, nil, fail
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return b.echo.InferContext(ctx, x)
}

func (b *routeBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

func (b *routeBackend) setFail(err error) {
	b.mu.Lock()
	b.fail = err
	b.mu.Unlock()
}

func TestRouterSpreadsLoad(t *testing.T) {
	// Least-loaded routing spreads CONCURRENT traffic: the in-flight term
	// pushes overlapping requests onto the idler target. (Sequential
	// traffic sticking to the single fastest idle target is correct.)
	r := NewRouter(0)
	a, b := &routeBackend{delay: 2 * time.Millisecond}, &routeBackend{delay: 2 * time.Millisecond}
	r.Upsert("a", a)
	r.Upsert("b", b)

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = r.InferContext(context.Background(), row(float64(i), 0))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if a.count() == 0 || b.count() == 0 {
		t.Fatalf("load not spread: a=%d b=%d", a.count(), b.count())
	}
	if got := r.Metrics().Counter("serve.route.dispatched").Value(); got != n {
		t.Fatalf("dispatched = %d, want %d", got, n)
	}
}

func TestRouterFailoverAndCooldown(t *testing.T) {
	r := NewRouter(time.Hour) // cooldown long enough to pin the target out
	bad, good := &routeBackend{}, &routeBackend{}
	bad.setFail(errors.New("master down"))
	r.Upsert("bad", bad)
	r.Upsert("good", good)

	// Drive until the bad target has been tried: it errors, cools down,
	// and the request fails over to the good one within the same call.
	for i := 0; i < 10; i++ {
		if _, _, err := r.InferContext(context.Background(), row(float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if bad.count() == 0 {
		t.Fatal("bad target was never tried")
	}
	if got := r.Metrics().Counter("serve.route.failover").Value(); got == 0 {
		t.Fatal("no failover counted")
	}
	// Once cooling, the bad target stops receiving traffic entirely.
	tried := bad.count()
	for i := 0; i < 10; i++ {
		if _, _, err := r.InferContext(context.Background(), row(float64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if bad.count() != tried {
		t.Fatalf("cooling target still tried: %d → %d", tried, bad.count())
	}

	// With every target failing, the error propagates (after both tried).
	good.setFail(errors.New("also down"))
	if _, _, err := r.InferContext(context.Background(), row(1, 0)); err == nil {
		t.Fatal("all-targets-down dispatch succeeded")
	}
}

func TestRouterNoTargets(t *testing.T) {
	r := NewRouter(0)
	if _, _, err := r.InferContext(context.Background(), row(1, 0)); !errors.Is(err, errNoTargets) {
		t.Fatalf("err = %v, want errNoTargets", err)
	}
	r.Upsert("a", &routeBackend{})
	r.Remove("a")
	if _, _, err := r.InferContext(context.Background(), row(1, 0)); !errors.Is(err, errNoTargets) {
		t.Fatalf("err after remove = %v, want errNoTargets", err)
	}
}

func TestRouterQuorumFallback(t *testing.T) {
	r := NewRouter(0)
	// routeBackend implements only Backend: the quorum path must fall back
	// to strict and report a full (1/1) quorum.
	r.Upsert("plain", &routeBackend{})
	_, _, live, total, err := r.InferQuorumContext(context.Background(), row(2, 1), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if live != 1 || total != 1 {
		t.Fatalf("fallback quorum %d/%d, want 1/1", live, total)
	}

	// A degraded-capable target reports its own quorum through the router.
	r2 := NewRouter(0)
	r2.Upsert("degraded", &degradedFlipBackend{})
	_, _, live, total, err = r2.InferQuorumContext(context.Background(), row(2, 1), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !(live < total) {
		t.Fatalf("degraded target reported %d/%d through the router", live, total)
	}
}

func TestRouterBehindGateway(t *testing.T) {
	// The full stack: Gateway → Router → N backends, with cache+coalesce on.
	r := NewRouter(0)
	a, b := &routeBackend{}, &routeBackend{}
	r.Upsert("a", a)
	r.Upsert("b", b)
	gw := New(r, Config{MaxBatch: 4, CacheSize: 32, Coalesce: true})
	defer gw.Close()
	gw.SetModelVersion("v1")

	for i := 0; i < 8; i++ {
		res, err := gw.Predict(context.Background(), row(float64(i%3), i%3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Winners[0] != i%3 {
			t.Fatalf("wrong winner via router: %d", res.Winners[0])
		}
	}
	if a.count()+b.count() == 0 {
		t.Fatal("no backend traffic")
	}
	if a.count()+b.count() >= 8 {
		t.Fatal("cache did nothing behind the router")
	}
}
