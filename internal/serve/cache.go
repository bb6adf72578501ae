package serve

// Demand shaping: the content-addressed response cache and the
// duplicate-request coalescer (singleflight). Real edge traffic is heavily
// skewed — repeated sensor frames, hot queries — and before this layer every
// byte-identical duplicate paid a full ensemble inference. Two mechanisms
// turn repeated demand into cheap demand:
//
//   - the cache: a bounded LRU keyed by a SHA-256 digest of the canonicalized
//     feature tensor plus the loaded model version, with an optional TTL.
//     A hit answers in microseconds without touching the admission queue.
//     Degraded (partial-ensemble) answers are never cached: they reflect a
//     transient fleet state, and serving them later would replay an outage.
//   - singleflight: N identical in-flight tensors cost exactly one queued
//     inference. The first becomes the leader and rides the normal admission
//     path; the rest wait on the leader's flight and share its (cloned)
//     result. A waiter whose own deadline fires gets its context error — a
//     504, never a late or stale share — and a waiter outliving a leader
//     that died of the leader's own deadline retries as a fresh leader.
//
// SetModelVersion invalidates the whole cache (the version participates in
// key derivation, and the store is purged eagerly), which is how a snapshot
// hot-swap must announce itself. Everything is counted: serve.cache.{hits,
// misses,expired,evictions,coalesced,invalidations} plus the
// serve.cache.hit_rate_pct and serve.cache.size gauges.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// cacheKey is the content address of one request: a SHA-256 digest over the
// model version, the tensor shape, and every canonicalized element.
type cacheKey [sha256.Size]byte

// canonicalNaN is the single bit pattern all NaN payloads collapse to, so a
// request's digest does not depend on which NaN a caller produced. (The
// HTTP front door rejects non-finite values outright; this guards direct
// Go callers.)
var canonicalNaN = math.Float64bits(math.NaN())

// digestBlock is how many values digest canonicalises before each hash
// write. SHA-256 runs at memory speed over a block; fed eight bytes at a
// time it spends most of a 16 × 784 key on call overhead.
const digestBlock = 512

// digest derives x's content address under version. Canonicalization:
// -0.0 hashes as +0.0 (they are ==, and every kernel treats them alike)
// and NaNs collapse to one pattern.
func digest(version string, x *tensor.Tensor) cacheKey {
	h := sha256.New()
	var buf [digestBlock * 8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(version)))
	h.Write(buf[:8])
	h.Write([]byte(version))
	binary.LittleEndian.PutUint64(buf[:], uint64(x.Shape[0]))
	binary.LittleEndian.PutUint64(buf[8:], uint64(x.Shape[1]))
	h.Write(buf[:16])
	for data := x.Data; len(data) > 0; {
		n := min(len(data), digestBlock)
		for i, v := range data[:n] {
			bits := math.Float64bits(v)
			if v == 0 {
				bits = 0 // -0.0 → +0.0
			} else if v != v {
				bits = canonicalNaN
			}
			binary.LittleEndian.PutUint64(buf[i*8:], bits)
		}
		h.Write(buf[:n*8])
		data = data[n:]
	}
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// cloneResult deep-copies a Result so cached values and coalesced shares
// never alias a caller's (mutable) view.
func cloneResult(r Result) Result {
	out := r
	if r.Probs != nil {
		out.Probs = tensor.New(r.Probs.Shape...)
		copy(out.Probs.Data, r.Probs.Data)
	}
	out.Winners = append([]int(nil), r.Winners...)
	out.Entropy = append([]float64(nil), r.Entropy...)
	return out
}

// cacheEntry is one cached response with its expiry (zero = never) and the
// model version it was computed under.
type cacheEntry struct {
	key     cacheKey
	version string
	res     Result
	expires time.Time
}

// responseCache is the bounded LRU+TTL store. It is a pure container: the
// gateway owns all metric accounting, the cache just reports what happened.
// Safe for concurrent use. The store tracks the current model version so a
// put computed under a superseded version can be rejected under the same
// lock that serialized the purge — without this, a leader that started
// before a hot swap re-inserts an entry keyed under the old version: dead
// weight that can never be looked up again (new digests use the new
// version) but still occupies LRU capacity until evicted.
type responseCache struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	version string
	ll      *list.List // front = most recently used
	items   map[cacheKey]*list.Element
}

func newResponseCache(max int, ttl time.Duration) *responseCache {
	return &responseCache{
		max:   max,
		ttl:   ttl,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element, max),
	}
}

// get returns a deep copy of the entry under key. expired reports a present
// -but-stale entry (removed on the way out); ok is false for both absent and
// expired.
func (c *responseCache) get(key cacheKey, now time.Time) (res Result, ok, expired bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[key]
	if !found {
		return Result{}, false, false
	}
	ent := el.Value.(*cacheEntry)
	if !ent.expires.IsZero() && now.After(ent.expires) {
		c.ll.Remove(el)
		delete(c.items, key)
		return Result{}, false, true
	}
	c.ll.MoveToFront(el)
	return cloneResult(ent.res), true, false
}

// put stores a deep copy of res under key, provided version still matches
// the store's current version. stale reports a rejected put (the version
// moved between digest time and now); evicted is how many entries were
// dropped to stay within the bound.
func (c *responseCache) put(key cacheKey, version string, res Result, now time.Time) (evicted int, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.version {
		return 0, true
	}
	var expires time.Time
	if c.ttl > 0 {
		expires = now.Add(c.ttl)
	}
	if el, found := c.items[key]; found {
		ent := el.Value.(*cacheEntry)
		ent.version = version
		ent.res = cloneResult(res)
		ent.expires = expires
		c.ll.MoveToFront(el)
		return 0, false
	}
	el := c.ll.PushFront(&cacheEntry{key: key, version: version, res: cloneResult(res), expires: expires})
	c.items[key] = el
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted, false
}

// setVersion records the model version the store serves under. The first
// call labels the version the gateway started with; a later change is a
// swap: the store purges under the same lock, so a concurrent put computed
// under the old version is rejected no matter how the goroutines interleave.
// swapped reports whether a purge happened; purged is how many entries died.
func (c *responseCache) setVersion(v string) (purged int, swapped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.version
	c.version = v
	if prev == v || prev == "" {
		return 0, false
	}
	n := c.ll.Len()
	c.ll.Init()
	c.items = make(map[cacheKey]*list.Element, c.max)
	return n, true
}

// stale counts live entries stored under a version other than the current
// one. With the versioned-put guard this is always zero; benches and tests
// assert it to pin the invariant.
func (c *responseCache) stale() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).version != c.version {
			n++
		}
	}
	return n
}

// len reports the current entry count.
func (c *responseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flight is one in-flight leader inference plus everyone waiting on it.
// done closes exactly once, after res/err are written.
type flight struct {
	done    chan struct{}
	res     Result
	err     error
	waiters int64 // joined non-leaders; read under the gateway's flightMu
}

// SetModelVersion records the identity of the loaded model/snapshot and
// invalidates every cached response: the version participates in cache-key
// derivation, and the store is purged eagerly so stale answers cannot
// outlive a hot swap even through a hash collision. Call it whenever the
// serving snapshot changes (teamnet-serve derives it from the team bundle's
// content hash at startup).
func (g *Gateway) SetModelVersion(v string) {
	g.modelMu.Lock()
	g.modelVersion = v
	g.modelMu.Unlock()
	if g.cache == nil {
		return
	}
	// The first call labels the model the gateway started with; only a
	// later change is a swap worth counting and purging for. The cache
	// tracks the version itself so the purge and the version change are
	// one atomic step w.r.t. concurrent versioned puts.
	if _, swapped := g.cache.setVersion(v); !swapped {
		return
	}
	g.metrics.Counter("serve.cache.invalidations").Inc()
	// A swap starts a fresh measurement window: the lifetime ratio would
	// blend old-model traffic in and hide the post-swap cold cache.
	g.cacheHits.Store(0)
	g.cacheLookups.Store(0)
	g.metrics.Gauge("serve.cache.hit_rate_pct").Set(0)
	g.metrics.Gauge("serve.cache.size").Set(int64(g.cache.len()))
}

// CacheStats reports the cache's live entry count and how many of those
// entries were stored under a version other than the current one. stale is
// always zero while the versioned-put guard holds; the fleet bench asserts
// it after every scripted hot-swap.
func (g *Gateway) CacheStats() (size, stale int) {
	if g.cache == nil {
		return 0, 0
	}
	return g.cache.len(), g.cache.stale()
}

// ModelVersion returns the version label the cache keys are derived under.
func (g *Gateway) ModelVersion() string {
	g.modelMu.RLock()
	defer g.modelMu.RUnlock()
	return g.modelVersion
}

// shaped reports whether the demand-shaping layer is in the request path.
func (g *Gateway) shaped() bool { return g.cache != nil || g.cfg.Coalesce }

// cacheGet is the counted lookup: it maintains the hit/miss/expired
// counters, the hit-rate gauge, and the size gauge.
func (g *Gateway) cacheGet(key cacheKey) (Result, bool) {
	if g.cache == nil {
		return Result{}, false
	}
	res, ok, expired := g.cache.get(key, time.Now())
	g.cacheLookups.Add(1)
	if ok {
		g.cacheHits.Add(1)
		g.metrics.Counter("serve.cache.hits").Inc()
	} else {
		g.metrics.Counter("serve.cache.misses").Inc()
		if expired {
			g.metrics.Counter("serve.cache.expired").Inc()
		}
	}
	// The window counters reset on invalidation, so a racing reset can
	// leave lookups at zero (guard the division) or momentarily behind
	// hits (clamp the ratio).
	if lookups := g.cacheLookups.Load(); lookups > 0 {
		pct := g.cacheHits.Load() * 100 / lookups
		if pct > 100 {
			pct = 100
		}
		g.metrics.Gauge("serve.cache.hit_rate_pct").Set(pct)
	}
	g.metrics.Gauge("serve.cache.size").Set(int64(g.cache.len()))
	return res, ok
}

// cachePut stores a served result, counting evictions. Degraded answers and
// errors never reach here. version is the model version the result was
// computed under; if a hot swap landed since, the put is skipped and
// counted as serve.cache.stale_puts instead of inserting dead weight.
func (g *Gateway) cachePut(key cacheKey, version string, res Result) {
	if g.cache == nil {
		return
	}
	evicted, stale := g.cache.put(key, version, res, time.Now())
	if stale {
		g.metrics.Counter("serve.cache.stale_puts").Inc()
		return
	}
	if evicted > 0 {
		g.metrics.Counter("serve.cache.evictions").Add(int64(evicted))
	}
	g.metrics.Gauge("serve.cache.size").Set(int64(g.cache.len()))
}

// joinFlight either registers the caller as the leader for key (creating
// the flight) or joins an existing flight as a waiter.
func (g *Gateway) joinFlight(key cacheKey) (fl *flight, leader bool) {
	g.flightMu.Lock()
	defer g.flightMu.Unlock()
	if fl, ok := g.flights[key]; ok {
		fl.waiters++
		return fl, false
	}
	fl = &flight{done: make(chan struct{})}
	g.flights[key] = fl
	return fl, true
}

// finishFlight publishes the leader's outcome to every waiter and retires
// the flight, so later identical requests start fresh (or hit the cache).
func (g *Gateway) finishFlight(key cacheKey, fl *flight, res Result, err error) {
	g.flightMu.Lock()
	delete(g.flights, key)
	g.flightMu.Unlock()
	fl.res = res
	fl.err = err
	close(fl.done)
}

// isContextErr reports a leader outcome that was the leader's own doing
// (its deadline or cancellation) rather than a verdict on the work.
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// predictShaped is the demand-shaped request path: cache lookup, then
// singleflight, then the ordinary admission queue for leaders. opts ride
// with the leader; waiters inherit the leader's outcome.
func (g *Gateway) predictShaped(ctx context.Context, x *tensor.Tensor, opts Options) (Result, error) {
	// The version is captured alongside the key: if a hot swap lands while
	// the leader is in flight, the put below is rejected instead of
	// re-inserting an entry keyed under the superseded version.
	version := g.ModelVersion()
	key := digest(version, x)
	start := time.Now()
	if res, ok := g.cacheGet(key); ok {
		res.Cached = true
		e2e := time.Since(start)
		g.metrics.Observe("serve.e2e", e2e)
		g.sloFinished(e2e, nil)
		return res, nil
	}
	for {
		fl, leader := g.joinFlight(key)
		if leader {
			res, err := g.predictQueued(ctx, x, opts)
			if err == nil && !res.Degraded {
				g.cachePut(key, version, res)
			}
			g.finishFlight(key, fl, res, err)
			return res, err
		}
		select {
		case <-fl.done:
			if fl.err != nil {
				if isContextErr(fl.err) && ctx.Err() == nil {
					// The leader died of its own deadline; this waiter is
					// still alive, so it retries — typically as the new
					// leader.
					continue
				}
				// Shared verdicts (backend errors, shed at admission)
				// propagate: N duplicates cost one admission attempt too.
				return Result{}, fl.err
			}
			g.metrics.Counter("serve.cache.coalesced").Inc()
			res := cloneResult(fl.res)
			if res.Degraded {
				g.metrics.Counter("serve.degraded").Inc()
			}
			e2e := time.Since(start)
			g.metrics.Observe("serve.e2e", e2e)
			g.sloFinished(e2e, nil)
			return res, nil
		case <-ctx.Done():
			// The waiter's own deadline fired first: it gets its context
			// error (HTTP 504), never a late share scattered after the fact.
			g.metrics.Counter("serve.timeouts").Inc()
			g.metrics.Observe("serve.e2e", time.Since(start))
			g.sloBurned()
			return Result{}, ctx.Err()
		case <-g.quit:
			return Result{}, ErrClosed
		}
	}
}
