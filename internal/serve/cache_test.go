package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// Demand-shaping tests: the content-addressed response cache and the
// singleflight coalescer (cache.go). All run under -race via make verify.

// digestFor computes the request's content address under the current model
// version.
func (g *Gateway) digestFor(x *tensor.Tensor) cacheKey {
	return digest(g.ModelVersion(), x)
}

// flightWaiters reports how many callers are coalesced behind key's leader,
// so tests can sequence deterministically.
func (g *Gateway) flightWaiters(key cacheKey) int64 {
	g.flightMu.Lock()
	defer g.flightMu.Unlock()
	if fl, ok := g.flights[key]; ok {
		return fl.waiters
	}
	return 0
}

// countingBackend wraps echoBackend with a call counter so tests can prove
// how many inferences a traffic pattern actually cost.
type countingBackend struct {
	echo echoBackend
}

func (b *countingBackend) calls() int {
	b.echo.mu.Lock()
	defer b.echo.mu.Unlock()
	return len(b.echo.batches)
}

func (b *countingBackend) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	return b.echo.InferContext(ctx, x)
}

// TestCacheHitSkipsBackend: a byte-identical repeat is answered from the
// cache — no second inference, Cached set, hit/miss counters moving.
func TestCacheHitSkipsBackend(t *testing.T) {
	be := &countingBackend{}
	gw := New(be, Config{MaxBatch: 4, CacheSize: 16})
	defer gw.Close()

	first, err := gw.Predict(context.Background(), row(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request flagged Cached")
	}
	second, err := gw.Predict(context.Background(), row(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if second.Winners[0] != first.Winners[0] || second.Probs.Data[1] != first.Probs.Data[1] {
		t.Fatalf("cached answer differs: %v vs %v", second, first)
	}
	if got := be.calls(); got != 1 {
		t.Fatalf("backend ran %d times, want 1", got)
	}
	c := gw.Metrics()
	if c.Counter("serve.cache.hits").Value() != 1 || c.Counter("serve.cache.misses").Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1",
			c.Counter("serve.cache.hits").Value(), c.Counter("serve.cache.misses").Value())
	}
	if got := gw.Metrics().Gauge("serve.cache.hit_rate_pct").Value(); got != 50 {
		t.Fatalf("hit_rate_pct = %d, want 50", got)
	}
	// The cached result must not alias the stored copy: mutating it cannot
	// poison later hits.
	second.Probs.Data[0] = -999
	third, err := gw.Predict(context.Background(), row(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if third.Probs.Data[0] == -999 {
		t.Fatal("cached entry aliased a caller's result")
	}
}

// TestCacheTTLExpiry: an entry past its TTL misses (counted under
// serve.cache.expired) and the backend runs again.
func TestCacheTTLExpiry(t *testing.T) {
	be := &countingBackend{}
	gw := New(be, Config{MaxBatch: 4, CacheSize: 16, CacheTTL: 30 * time.Millisecond})
	defer gw.Close()

	if _, err := gw.Predict(context.Background(), row(1, 0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	res, err := gw.Predict(context.Background(), row(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("expired entry served as a hit")
	}
	if got := be.calls(); got != 2 {
		t.Fatalf("backend ran %d times, want 2 (entry should have expired)", got)
	}
	if got := gw.Metrics().Counter("serve.cache.expired").Value(); got != 1 {
		t.Fatalf("serve.cache.expired = %d, want 1", got)
	}
}

// TestCacheLRUEviction: the bound holds, the oldest entry dies first, and
// evictions are counted.
func TestCacheLRUEviction(t *testing.T) {
	be := &countingBackend{}
	gw := New(be, Config{MaxBatch: 4, CacheSize: 2})
	defer gw.Close()

	for i := 0; i < 3; i++ { // three distinct keys through a 2-entry cache
		if _, err := gw.Predict(context.Background(), row(float64(i+1), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := gw.Metrics().Counter("serve.cache.evictions").Value(); got != 1 {
		t.Fatalf("serve.cache.evictions = %d, want 1", got)
	}
	if got := gw.Metrics().Gauge("serve.cache.size").Value(); got != 2 {
		t.Fatalf("serve.cache.size = %d, want 2", got)
	}
	// Key 1 was the LRU victim: re-requesting it is a miss...
	if res, err := gw.Predict(context.Background(), row(1, 0)); err != nil || res.Cached {
		t.Fatalf("evicted key served from cache (err %v, cached %v)", err, res.Cached)
	}
	// ...while key 3 is still resident.
	if res, err := gw.Predict(context.Background(), row(3, 0)); err != nil || !res.Cached {
		t.Fatalf("resident key missed (err %v, cached %v)", err, res.Cached)
	}
}

// TestSetModelVersionInvalidates: bumping the model version purges the
// cache and re-keys every digest, so a hot-swapped snapshot can never
// serve the old model's answers.
func TestSetModelVersionInvalidates(t *testing.T) {
	be := &countingBackend{}
	gw := New(be, Config{MaxBatch: 4, CacheSize: 16})
	defer gw.Close()
	gw.SetModelVersion("v1")

	if _, err := gw.Predict(context.Background(), row(5, 0)); err != nil {
		t.Fatal(err)
	}
	gw.SetModelVersion("v2")
	res, err := gw.Predict(context.Background(), row(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("answer from the old model version served after the swap")
	}
	if got := be.calls(); got != 2 {
		t.Fatalf("backend ran %d times, want 2", got)
	}
	if got := gw.Metrics().Counter("serve.cache.invalidations").Value(); got != 1 {
		t.Fatalf("serve.cache.invalidations = %d, want 1", got)
	}
	// Same-version SetModelVersion is a no-op, not a purge.
	gw.SetModelVersion("v2")
	if res, err := gw.Predict(context.Background(), row(5, 0)); err != nil || !res.Cached {
		t.Fatalf("idempotent SetModelVersion purged the cache (err %v, cached %v)", err, res.Cached)
	}
}

// TestSingleflightCoalesce: with a leader wedged inside the backend, N
// identical requests join its flight; one release serves everyone from a
// single inference.
func TestSingleflightCoalesce(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{}, 8), entered: make(chan struct{}, 8)}
	gw := New(be, Config{MaxBatch: 4, Coalesce: true})
	defer gw.Close()

	x := row(9, 2)
	key := gw.digestFor(x)
	type out struct {
		res Result
		err error
	}
	results := make(chan out, 8)
	go func() {
		res, err := gw.Predict(context.Background(), x)
		results <- out{res, err}
	}()
	<-be.entered // the leader is inside the backend

	const waiters = 5
	for i := 0; i < waiters; i++ {
		go func() {
			res, err := gw.Predict(context.Background(), row(9, 2))
			results <- out{res, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for gw.flightWaiters(key) < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters joined the flight", gw.flightWaiters(key), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	be.gate <- struct{}{} // release exactly one inference

	for i := 0; i < waiters+1; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.res.Winners[0] != 2 {
			t.Fatalf("winner %d, want 2", r.res.Winners[0])
		}
		if r.res.Cached {
			t.Fatal("coalesced share flagged Cached")
		}
	}
	be.echo.mu.Lock()
	calls := len(be.echo.batches)
	be.echo.mu.Unlock()
	if calls != 1 {
		t.Fatalf("%d identical requests cost %d inferences, want 1", waiters+1, calls)
	}
	if got := gw.Metrics().Counter("serve.cache.coalesced").Value(); got != waiters {
		t.Fatalf("serve.cache.coalesced = %d, want %d", got, waiters)
	}
}

// TestWaiterDeadlineExpires: a coalesced waiter whose own deadline fires
// while the leader is still in flight gets its context error (the HTTP 504
// path), never a late share — and the leader is unaffected.
func TestWaiterDeadlineExpires(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{}, 2), entered: make(chan struct{}, 2)}
	gw := New(be, Config{MaxBatch: 4, Coalesce: true})
	defer gw.Close()

	x := row(3, 1)
	key := gw.digestFor(x)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := gw.Predict(context.Background(), x)
		leaderDone <- err
	}()
	<-be.entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	waiterDone := make(chan error, 1)
	go func() {
		_, err := gw.Predict(ctx, row(3, 1))
		waiterDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gw.flightWaiters(key) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	// The waiter's deadline fires while the leader is still wedged.
	if err := <-waiterDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter got %v, want context.DeadlineExceeded", err)
	}
	if code := statusFor(context.DeadlineExceeded); code != http.StatusGatewayTimeout {
		t.Fatalf("deadline maps to %d, want 504", code)
	}
	be.gate <- struct{}{}
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after waiter expiry: %v", err)
	}
	if got := gw.Metrics().Counter("serve.cache.coalesced").Value(); got != 0 {
		t.Fatalf("expired waiter counted as coalesced (%d)", got)
	}
}

// handDeadline is a context whose deadline the test fires by hand, so the
// expiry is ordered after the events it must follow instead of racing them
// on the wall clock. It advertises no deadline: nothing derived from it (the
// batch's own context) expires on a timer either.
type handDeadline struct {
	context.Context
	done chan struct{}
}

func (c handDeadline) Done() <-chan struct{} { return c.done }

func (c handDeadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestWaiterRetriesAfterLeaderDeadline: the leader dies of its *own*
// deadline; a longer-lived waiter must not inherit that verdict — it
// retries as the new leader and succeeds.
//
// The leader's deadline fires only once the waiter has joined its flight,
// and each batch that entered the backend gets a gate token of its own. A
// wall-clock deadline and a single token do not order those events: under
// -race on 2 vCPU the leader's batch — its context expired, its goroutine
// not yet run — takes the token meant for the waiter's retry about one run
// in four, and the retry's batch then sits on the gate for ever.
func TestWaiterRetriesAfterLeaderDeadline(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{}, 2), entered: make(chan struct{}, 2)}
	gw := New(be, Config{MaxBatch: 4, Coalesce: true})
	defer gw.Close()
	defer close(be.gate) // whatever fails, no batch stays parked under Close

	x := row(4, 1)
	key := gw.digestFor(x)
	leaderCtx := handDeadline{Context: context.Background(), done: make(chan struct{})}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := gw.Predict(leaderCtx, x)
		leaderDone <- err
	}()
	<-be.entered

	waiterDone := make(chan error, 1)
	go func() {
		_, err := gw.Predict(context.Background(), row(4, 1))
		waiterDone <- err
	}()
	waitFor(t, "the waiter joining the flight", func() bool { return gw.flightWaiters(key) >= 1 })

	close(leaderCtx.done)
	if err := <-leaderDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader got %v, want context.DeadlineExceeded", err)
	}
	// The retrying waiter becomes its own leader and enters the backend;
	// release it, and the leader's abandoned batch with it.
	<-be.entered
	be.gate <- struct{}{}
	be.gate <- struct{}{}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter inherited the leader's deadline: %v", err)
	}
}

// degradedFlipBackend serves one degraded answer, then full answers, so a
// test can prove degraded results never enter the cache.
type degradedFlipBackend struct {
	echo  echoBackend
	mu    sync.Mutex
	calls int
}

func (b *degradedFlipBackend) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	return b.echo.InferContext(ctx, x)
}

func (b *degradedFlipBackend) InferQuorumContext(ctx context.Context, x *tensor.Tensor, soft time.Duration) (*tensor.Tensor, []int, int, int, error) {
	b.mu.Lock()
	b.calls++
	degraded := b.calls == 1
	b.mu.Unlock()
	probs, winners, err := b.echo.InferContext(ctx, x)
	if degraded {
		return probs, winners, 2, 3, err
	}
	return probs, winners, 3, 3, err
}

// TestDegradedNeverCached: a partial-ensemble answer reflects a transient
// fleet state — it must not be replayed from the cache once the fleet
// heals. The degraded answer is served (and may be shared with coalesced
// waiters), but the next identical request runs inference again; the full
// answer it gets IS cached.
func TestDegradedNeverCached(t *testing.T) {
	be := &degradedFlipBackend{}
	gw := New(be, Config{MaxBatch: 4, CacheSize: 16, Degraded: true})
	defer gw.Close()

	first, err := gw.Predict(context.Background(), row(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Degraded {
		t.Fatal("scripted degraded answer not flagged")
	}
	second, err := gw.Predict(context.Background(), row(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("degraded answer was served from the cache")
	}
	if second.Degraded {
		t.Fatal("backend healed but the answer is still degraded")
	}
	third, err := gw.Predict(context.Background(), row(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.Degraded {
		t.Fatalf("healed full answer not cached (cached %v, degraded %v)", third.Cached, third.Degraded)
	}
}

// TestDigestCanonicalization: ±0.0 share a key (they compare equal and
// infer identically); any payload change — value, shape, or model version —
// separates keys.
func TestDigestCanonicalization(t *testing.T) {
	negZero := row(0, 0)
	negZero.RowSlice(0)[0] = -0.0 // math.Copysign(0, -1) spelled explicitly below
	posZero := row(0, 0)
	if digest("v", negZero) != digest("v", posZero) {
		t.Fatal("-0.0 and +0.0 hash differently")
	}
	if digest("v", row(1, 0)) == digest("v", row(2, 0)) {
		t.Fatal("different payloads share a digest")
	}
	if digest("v1", row(1, 0)) == digest("v2", row(1, 0)) {
		t.Fatal("different model versions share a digest")
	}
	wide := tensor.New(1, 4)
	tall := tensor.New(4, 1)
	if digest("v", wide) == digest("v", tall) {
		t.Fatal("1×4 and 4×1 zero tensors share a digest")
	}
}

// digestPerValue is digest as it was before it hashed by the block: one
// eight-byte write per value. The key bytes are a contract — they must not
// move when the hashing strategy does.
func digestPerValue(version string, x *tensor.Tensor) cacheKey {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(version)))
	h.Write(buf[:])
	h.Write([]byte(version))
	binary.LittleEndian.PutUint64(buf[:], uint64(x.Shape[0]))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(x.Shape[1]))
	h.Write(buf[:])
	for _, v := range x.Data {
		bits := math.Float64bits(v)
		if v == 0 {
			bits = 0 // -0.0 → +0.0
		} else if bits&^(1<<63) > 0x7FF0000000000000 {
			bits = canonicalNaN
		}
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// TestDigestKeyBytesUnchanged compares the block-wise digest with the
// per-value one over random tensors salted with ±0, infinities and NaNs of
// every payload, at sizes on both sides of every block boundary.
func TestDigestKeyBytesUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, 7, digestBlock - 1, digestBlock, digestBlock + 1, 2*digestBlock - 1, 2 * digestBlock, 2*digestBlock + 1, 16 * 784}
	for _, n := range sizes {
		for _, rows := range []int{1, n} {
			x := tensor.New(rows, n/rows)
			for i := range x.Data {
				switch rng.Intn(6) {
				case 0:
					x.Data[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				case 1: // exponent all ones: ±Inf, and NaNs quiet and signalling
					x.Data[i] = math.Float64frombits(0x7FF<<52 | rng.Uint64()&(1<<63|1<<52-1))
				default:
					x.Data[i] = math.Float64frombits(rng.Uint64())
				}
			}
			for _, version := range []string{"", "v1", strings.Repeat("long-version-", 50)} {
				if got, want := digest(version, x), digestPerValue(version, x); got != want {
					t.Fatalf("%d×%d under %q: key %x, per-value key %x", rows, n/rows, version, got, want)
				}
			}
		}
	}
	nans := tensor.New(1, 2)
	nans.Data[0], nans.Data[1] = math.Float64frombits(0x7FF0000000000001), 1
	other := tensor.New(1, 2)
	other.Data[0], other.Data[1] = math.Float64frombits(0xFFF8000000000123), 1
	if digest("v", nans) != digest("v", other) {
		t.Fatal("two NaN payloads hash differently")
	}
}

// BenchmarkDigest is the cache key of a full batch: go test -bench Digest ./internal/serve.
func BenchmarkDigest(b *testing.B) {
	x := tensor.New(16, 784)
	for i := range x.Data {
		x.Data[i] = float64(i%256) / 255
	}
	b.SetBytes(int64(len(x.Data) * 8))
	for i := 0; i < b.N; i++ {
		digest("bundle-hash", x)
	}
}

// TestPredictHTTPCachedField: the client contract — a repeated POST carries
// "cached": true; the first does not carry the field at all.
func TestPredictHTTPCachedField(t *testing.T) {
	be := &countingBackend{}
	gw := New(be, Config{MaxBatch: 4, CacheSize: 16, Coalesce: true})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	body := `{"x": [[0.5, 1, 0]]}`
	post := func() (int, map[string]any) {
		resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var decoded map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, decoded
	}
	code, first := post()
	if code != http.StatusOK {
		t.Fatalf("first POST: status %d", code)
	}
	if _, present := first["cached"]; present {
		t.Fatal(`fresh answer carries "cached"`)
	}
	code, second := post()
	if code != http.StatusOK {
		t.Fatalf("second POST: status %d", code)
	}
	if cached, _ := second["cached"].(bool); !cached {
		t.Fatalf(`repeat answer lacks "cached": true (%v)`, second)
	}
	if be.calls() != 1 {
		t.Fatalf("backend ran %d times for identical posts, want 1", be.calls())
	}
}

// TestConcurrentShapedTraffic hammers the shaped path from many goroutines
// over a small key space — the -race workout for the cache + flight table.
func TestConcurrentShapedTraffic(t *testing.T) {
	be := &countingBackend{}
	gw := New(be, Config{MaxBatch: 8, Workers: 3, CacheSize: 8, CacheTTL: 20 * time.Millisecond, Coalesce: true})
	defer gw.Close()

	const goroutines = 32
	const perG = 25
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				mark := float64(j%6 + 1) // 6 hot keys
				res, err := gw.Predict(context.Background(), row(mark, int(mark)))
				if err != nil {
					errs[i] = err
					return
				}
				if res.Winners[0] != int(mark) {
					errs[i] = errors.New("wrong row scattered back")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c := gw.Metrics()
	served := c.Counter("serve.cache.hits").Value() + c.Counter("serve.cache.coalesced").Value()
	if served == 0 {
		t.Fatal("hot-key hammer produced zero cache hits and zero coalesced shares")
	}
	if got := be.calls(); got >= goroutines*perG {
		t.Fatalf("backend ran %d times for %d requests — shaping did nothing", got, goroutines*perG)
	}
}

// TestHotSwapMidFlightSkipsStalePut: a SetModelVersion lands while the
// leader is inside the backend. The purge must win: the leader's cachePut —
// computed under the superseded version — is skipped (counted under
// serve.cache.stale_puts), waiters still get the leader's share, and the
// cache holds no version-A entry afterward. Runs under -race via make
// verify.
func TestHotSwapMidFlightSkipsStalePut(t *testing.T) {
	be := &gatedBackend{gate: make(chan struct{}, 4), entered: make(chan struct{}, 4)}
	gw := New(be, Config{MaxBatch: 4, CacheSize: 16, Coalesce: true})
	defer gw.Close()
	gw.SetModelVersion("vA")

	// Seed one resident version-A entry so the purge has something to kill.
	be.gate <- struct{}{}
	if _, err := gw.Predict(context.Background(), row(1, 0)); err != nil {
		t.Fatal(err)
	}
	<-be.entered
	if size, _ := gw.CacheStats(); size != 1 {
		t.Fatalf("seed entry not resident (size %d)", size)
	}

	// Wedge a leader inside the backend under version A.
	x := row(2, 1)
	key := gw.digestFor(x)
	type out struct {
		res Result
		err error
	}
	leaderDone := make(chan out, 1)
	go func() {
		res, err := gw.Predict(context.Background(), x)
		leaderDone <- out{res, err}
	}()
	<-be.entered

	waiterDone := make(chan out, 1)
	go func() {
		res, err := gw.Predict(context.Background(), row(2, 1))
		waiterDone <- out{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gw.flightWaiters(key) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	// The hot swap lands mid-flight: exactly one purge, cache emptied.
	gw.SetModelVersion("vB")
	if got := gw.Metrics().Counter("serve.cache.invalidations").Value(); got != 1 {
		t.Fatalf("serve.cache.invalidations = %d, want exactly 1", got)
	}
	if size, _ := gw.CacheStats(); size != 0 {
		t.Fatalf("purge left %d entries resident", size)
	}

	// Release the leader. Its put was computed under vA and must be skipped.
	be.gate <- struct{}{}
	lr := <-leaderDone
	if lr.err != nil {
		t.Fatalf("leader failed across the swap: %v", lr.err)
	}
	wr := <-waiterDone
	if wr.err != nil {
		t.Fatalf("waiter failed across the swap: %v", wr.err)
	}
	if wr.res.Winners[0] != 1 || wr.res.Cached {
		t.Fatalf("waiter share wrong (winner %d, cached %v), want leader's uncached result",
			wr.res.Winners[0], wr.res.Cached)
	}
	if got := gw.Metrics().Counter("serve.cache.coalesced").Value(); got != 1 {
		t.Fatalf("serve.cache.coalesced = %d, want 1", got)
	}
	if got := gw.Metrics().Counter("serve.cache.stale_puts").Value(); got != 1 {
		t.Fatalf("serve.cache.stale_puts = %d, want 1", got)
	}
	size, stale := gw.CacheStats()
	if size != 0 || stale != 0 {
		t.Fatalf("version-A entry survived the swap (size %d, stale %d)", size, stale)
	}

	// The hit-rate window restarted at the swap: the next lookup is the
	// first of the new window, so the gauge reads 0, not a lifetime blend.
	be.gate <- struct{}{}
	res, err := gw.Predict(context.Background(), row(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-be.entered
	if res.Cached {
		t.Fatal("post-swap request served a stale version-A answer")
	}
	if got := gw.Metrics().Gauge("serve.cache.hit_rate_pct").Value(); got != 0 {
		t.Fatalf("hit_rate_pct = %d after window reset, want 0", got)
	}
}
