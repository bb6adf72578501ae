package serve

// Router fans one gateway out across many masters: the horizontal tier of
// the serving fabric. It is itself a Backend (and DegradedBackend), so a
// Gateway stacks on top unchanged — admission, batching, caching and
// coalescing all ride over whichever master the router picks per dispatch.
//
// Selection is least-loaded: each target carries a live in-flight count and
// an rtt EWMA, and the router picks the target minimizing
// (inflight+1)·ewma — cheap power-of-all-choices that sends traffic where
// queues are short and links are fast, and adapts within a few round trips
// when a master slows down. A dispatch error puts the target in a short
// cooldown (it keeps serving as last resort when every target is cooling)
// and fails over to the next-best target once, so one dead master costs a
// request at most one extra hop, not an error. Membership updates arrive
// via Upsert/Remove — the teamnet-serve announce loop feeds discovered
// masters in and expires vanished ones.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/tensor"
)

// routeEWMASeed is the optimistic rtt a fresh target starts at, so new
// capacity attracts traffic immediately and earns a real measurement.
const routeEWMASeed = time.Millisecond

// routeTarget is one master behind the router.
type routeTarget struct {
	name     string
	be       Backend
	inflight atomic.Int64
	ewmaNs   atomic.Int64 // per-request latency EWMA
	coolNs   atomic.Int64 // unix nano until which the target is cooling
}

// score is the least-loaded metric: queue depth times expected latency.
func (t *routeTarget) score() int64 {
	ewma := t.ewmaNs.Load()
	if ewma <= 0 {
		ewma = int64(routeEWMASeed)
	}
	return (t.inflight.Load() + 1) * ewma
}

func (t *routeTarget) cooling(now int64) bool { return t.coolNs.Load() > now }

// observe folds one measured round trip into the EWMA (α = 1/4).
func (t *routeTarget) observe(d time.Duration) {
	prev := t.ewmaNs.Load()
	if prev <= 0 {
		t.ewmaNs.Store(int64(d))
		return
	}
	t.ewmaNs.Store(prev + (int64(d)-prev)/4)
}

// Router dispatches inferences across a mutable set of Backend targets.
type Router struct {
	cooldown time.Duration
	metrics  *metrics.Registry

	mu      sync.Mutex
	targets []*routeTarget
}

// NewRouter returns an empty router. cooldown is how long a target sits out
// after a dispatch error (0 = 300ms default); add targets with Upsert.
func NewRouter(cooldown time.Duration) *Router {
	if cooldown <= 0 {
		cooldown = 300 * time.Millisecond
	}
	return &Router{
		cooldown: cooldown,
		metrics:  new(metrics.Registry),
	}
}

// Metrics exposes the counters "serve.route.dispatched",
// "serve.route.failover", "serve.route.errors" and "serve.route.cooldowns"
// and the gauge "serve.route.targets".
func (r *Router) Metrics() *metrics.Registry { return r.metrics }

// Upsert adds a routing target (or replaces the backend under an existing
// name, keeping its load history). The name is the routing identity —
// typically the master's fabric address.
func (r *Router) Upsert(name string, be Backend) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.targets {
		if t.name == name {
			t.be = be
			return
		}
	}
	r.targets = append(r.targets, &routeTarget{name: name, be: be})
	r.metrics.Gauge("serve.route.targets").Set(int64(len(r.targets)))
}

// Remove drops a target (membership expiry). Unknown names are a no-op.
func (r *Router) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, t := range r.targets {
		if t.name == name {
			r.targets = append(r.targets[:i], r.targets[i+1:]...)
			break
		}
	}
	r.metrics.Gauge("serve.route.targets").Set(int64(len(r.targets)))
}

// pick returns up to want distinct targets, best score first. Cooling
// targets rank behind healthy ones instead of vanishing, so a fleet that is
// entirely cooling still serves (degraded beats down).
func (r *Router) pick(want int) []*routeTarget {
	now := time.Now().UnixNano()
	r.mu.Lock()
	candidates := append([]*routeTarget(nil), r.targets...)
	r.mu.Unlock()
	if len(candidates) == 0 {
		return nil
	}
	// Selection-sort the handful of targets: healthy before cooling, then
	// by score. Fleets are small (tens of masters); no heap needed.
	less := func(a, b *routeTarget) bool {
		ac, bc := a.cooling(now), b.cooling(now)
		if ac != bc {
			return !ac
		}
		return a.score() < b.score()
	}
	for i := 0; i < len(candidates); i++ {
		best := i
		for j := i + 1; j < len(candidates); j++ {
			if less(candidates[j], candidates[best]) {
				best = j
			}
		}
		candidates[i], candidates[best] = candidates[best], candidates[i]
	}
	if len(candidates) > want {
		candidates = candidates[:want]
	}
	return candidates
}

// errNoTargets is returned when the router has no masters to route to.
var errNoTargets = fmt.Errorf("serve: router has no targets")

// dispatch runs fn against the best target, failing over to the runner-up
// once when the best errors (its cooldown starts immediately). A ctx error
// is the caller's verdict, not the target's — no cooldown, no failover.
func (r *Router) dispatch(ctx context.Context, fn func(t *routeTarget) error) error {
	picks := r.pick(2)
	if len(picks) == 0 {
		return errNoTargets
	}
	var lastErr error
	for i, t := range picks {
		if i > 0 {
			r.metrics.Counter("serve.route.failover").Inc()
		}
		r.metrics.Counter("serve.route.dispatched").Inc()
		t.inflight.Add(1)
		start := time.Now()
		err := fn(t)
		t.inflight.Add(-1)
		if err == nil {
			t.observe(time.Since(start))
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		r.metrics.Counter("serve.route.errors").Inc()
		r.metrics.Counter("serve.route.cooldowns").Inc()
		t.coolNs.Store(time.Now().Add(r.cooldown).UnixNano())
		lastErr = err
	}
	return lastErr
}

// InferContext routes one strict inference (Backend contract).
func (r *Router) InferContext(ctx context.Context, x *tensor.Tensor) (probs *tensor.Tensor, winners []int, err error) {
	derr := r.dispatch(ctx, func(t *routeTarget) error {
		probs, winners, err = t.be.InferContext(ctx, x)
		return err
	})
	if derr != nil {
		return nil, nil, derr
	}
	return probs, winners, nil
}

// InferQuorumContext routes one partial-quorum inference (DegradedBackend
// contract). A target without quorum support serves strictly — live==total.
func (r *Router) InferQuorumContext(ctx context.Context, x *tensor.Tensor, soft time.Duration) (probs *tensor.Tensor, winners []int, live, total int, err error) {
	derr := r.dispatch(ctx, func(t *routeTarget) error {
		if db, ok := t.be.(DegradedBackend); ok {
			probs, winners, live, total, err = db.InferQuorumContext(ctx, x, soft)
			return err
		}
		probs, winners, err = t.be.InferContext(ctx, x)
		if err == nil {
			live, total = 1, 1
		}
		return err
	})
	if derr != nil {
		return nil, nil, 0, 0, derr
	}
	return probs, winners, live, total, nil
}
