// Package serve is the batching, deadline-aware inference gateway that
// stands between many concurrent callers and one cluster master. The
// cluster runtime (PR 4's multiplexed links) can carry many inferences in
// flight, but every caller still drives Master.Infer one blocking batch at
// a time; this package turns that capacity into a serving layer:
//
//   - a bounded admission queue with load shedding: a full queue rejects
//     instantly (ErrQueueFull, "serve.shed.queue_full"), and requests whose
//     deadline expired while queued are dropped before wasting a broadcast
//     ("serve.shed.expired") — under overload the gateway degrades by
//     answering fewer requests fast instead of all requests late;
//   - two priority lanes (PriorityHigh drains first) so latency-critical
//     traffic overtakes bulk traffic at the same queue;
//   - a work-conserving micro-batcher: a batch takes what already waits
//     and leaves the moment a dispatch worker can take it, so requests
//     coalesce (up to MaxBatch rows) only while every worker is busy; the
//     worker pool dispatches the batch through Master.InferContext — one
//     broadcast round trip amortized over every row — and the per-row
//     results (probs, winner, entropy) scatter back to their callers;
//   - deadline plumbing end to end: each request's context bounds its queue
//     wait and its share of the dispatched batch, and an expired request
//     stops burning peer round trips (see Master.InferContext);
//   - demand shaping (cache.go): a content-addressed response cache keyed
//     by the canonicalized input tensor plus the model version, and
//     singleflight coalescing so identical in-flight inputs cost one queued
//     inference — repeated edge traffic (hot queries, duplicate sensor
//     frames) stops paying retail for the ensemble.
//
// Everything is observable: gauges ("serve.queue_depth",
// "serve.inflight_batches"), latency histograms ("serve.queue_wait",
// "serve.e2e", "serve.dispatch_wait"), the batch-size value histogram
// ("serve.batch_size"), shed, timeout and flush-reason counters, and —
// with a tracer installed — a "serve.batch" span per dispatch whose
// children are the coalesced requests and the cluster's "infer" span tree.
//
// The HTTP front-end in http.go exposes Predict as a JSON endpoint; the
// teamnet-serve command wires both to a live master.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// Backend is the inference engine behind the gateway: *cluster.Master in
// production, a scripted fake in tests. InferContext must honor ctx
// cancellation and be safe for concurrent calls.
type Backend interface {
	InferContext(ctx context.Context, x *tensor.Tensor) (probs *tensor.Tensor, winners []int, err error)
}

// DegradedBackend is the optional partial-ensemble interface a Backend may
// implement (cluster.Master does): InferQuorumContext answers with whatever
// subset of the ensemble replied once soft elapses or quarantine thins the
// fleet, reporting live out of total nodes. With Config.Degraded set, the
// gateway prefers this path and marks live < total answers Degraded — a
// partial answer with quorum metadata instead of a 5xx.
type DegradedBackend interface {
	Backend
	InferQuorumContext(ctx context.Context, x *tensor.Tensor, soft time.Duration) (probs *tensor.Tensor, winners []int, live, total int, err error)
}

// Config tunes the gateway. The zero value means "use the defaults" for
// every field.
type Config struct {
	// MaxBatch is the row budget per dispatched batch; a batch is flushed
	// the moment it is full. Default 16.
	MaxBatch int
	// MaxLinger is ignored: the batcher holds no timer (see batchLoop). The
	// field remains only for callers that still set it.
	MaxLinger time.Duration
	// QueueSize bounds each admission lane; a full lane sheds instantly.
	// Default 256.
	QueueSize int
	// Workers is the number of concurrent batch dispatches, and thereby what
	// sizes batches: requests coalesce only while all Workers are busy. More
	// workers keep the pipeline full while a batch waits on the network;
	// the mux window bounds what actually rides each peer link. Default 2.
	Workers int
	// DefaultTimeout is applied to requests whose context carries no
	// deadline of its own. Zero leaves them unbounded.
	DefaultTimeout time.Duration
	// Degraded routes batches through the backend's partial-ensemble path
	// (DegradedBackend) when it implements one: quarantined or straggling
	// experts thin the answer instead of failing it, and the response
	// carries degraded/quorum metadata. Off by default — strict ensembles
	// unless the operator opts in.
	Degraded bool
	// SLOTarget is the end-to-end latency objective the brownout controller
	// defends: when the recent burn rate (requests shed, timed out, or
	// served slower than this target, as a fraction of all finished
	// requests) exceeds brownoutBurn, the controller tightens the admission
	// queue cap stepwise, trading queue depth for tail latency; it relaxes
	// as the burn subsides. Zero disables the controller.
	SLOTarget time.Duration
	// CacheSize bounds the content-addressed response cache (entries);
	// 0 disables caching. Full answers are stored under a digest of the
	// canonicalized input tensor plus the model version (SetModelVersion)
	// and served without a broadcast on repeat; degraded answers are never
	// cached. See cache.go.
	CacheSize int
	// CacheTTL bounds a cached answer's age. Zero means entries live until
	// LRU eviction or a SetModelVersion invalidation.
	CacheTTL time.Duration
	// Coalesce enables duplicate-request coalescing (singleflight):
	// identical in-flight input tensors share one queued inference, with
	// the result scattered to every waiter. Off by default; teamnet-serve
	// turns it on.
	Coalesce bool
}

func (c Config) normalized() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	return c
}

// Priority selects an admission lane.
type Priority int

const (
	// PriorityNormal is the default lane.
	PriorityNormal Priority = iota
	// PriorityHigh drains before normal traffic at every coalescing step.
	PriorityHigh
)

// Gateway errors. Deadline expiry surfaces as the request context's error
// (context.DeadlineExceeded / context.Canceled), not a gateway sentinel.
var (
	// ErrQueueFull rejects a request at admission: the lane is at
	// QueueSize. HTTP maps it to 429.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed fails requests caught in a gateway shutdown.
	ErrClosed = errors.New("serve: gateway closed")
	// ErrTooManyRows rejects a request larger than MaxBatch — the gateway
	// coalesces small requests; oversized batches belong on Master.Infer
	// directly.
	ErrTooManyRows = errors.New("serve: request exceeds the gateway's max batch")
)

// Result is one request's share of a dispatched batch: its own rows'
// combined probabilities, winning node per row, and the predictive entropy
// of each winning distribution. Degraded reports a partial-ensemble answer
// (Live of Nodes experts participated) — the graceful middle ground between
// a full answer and an error.
type Result struct {
	Probs   *tensor.Tensor
	Winners []int
	Entropy []float64

	Degraded bool
	Live     int // nodes that contributed to this answer
	Nodes    int // full ensemble size

	// Cached marks an answer served from the response cache: no inference
	// ran for this request. Always false when caching is off.
	Cached bool
}

type response struct {
	res Result
	err error
}

// request is one queued unit of work.
type request struct {
	x    *tensor.Tensor
	ctx  context.Context
	enq  time.Time
	resc chan response // buffered 1: the batcher never blocks on a gone caller
}

// Gateway is the serving layer. Create with New, stop with Close. Methods
// are safe for concurrent use.
type Gateway struct {
	cfg     Config
	backend Backend

	metrics *metrics.Registry

	tr atomic.Pointer[trace.Tracer] // nil = no span collection

	lanes    [2]chan *request // index by laneIdx: 0 = high, 1 = normal
	dispatch chan []*request
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup

	// Brownout controller state: the per-lane admission cap starts at the
	// configured value and tightens stepwise (halving per level) while the
	// SLO burn rate stays high.
	effQueue atomic.Int64 // per-lane admission cap
	level    atomic.Int64
	sloOK    atomic.Int64 // finished within SLOTarget since last tick
	sloMiss  atomic.Int64 // shed, timed out, or finished over target

	// Queue drain-rate estimate behind RetryAfter.
	dequeued  atomic.Int64
	drainMu   sync.Mutex
	drainT    time.Time
	drainN    int64
	drainRate float64 // requests/second leaving the queue, smoothed

	// Demand shaping (cache.go): the content-addressed response cache,
	// the singleflight table, and the model-version label that scopes
	// every cache key.
	cache        *responseCache // nil when caching is off
	cacheHits    atomic.Int64
	cacheLookups atomic.Int64
	flightMu     sync.Mutex
	flights      map[cacheKey]*flight
	modelMu      sync.RWMutex
	modelVersion string
}

// New starts a gateway over backend: the batcher goroutine plus
// cfg.Workers dispatch workers.
func New(backend Backend, cfg Config) *Gateway {
	cfg = cfg.normalized()
	g := &Gateway{
		cfg:      cfg,
		backend:  backend,
		metrics:  new(metrics.Registry),
		dispatch: make(chan []*request),
		quit:     make(chan struct{}),
		flights:  make(map[cacheKey]*flight),
	}
	if cfg.CacheSize > 0 {
		g.cache = newResponseCache(cfg.CacheSize, cfg.CacheTTL)
	}
	g.lanes[0] = make(chan *request, cfg.QueueSize)
	g.lanes[1] = make(chan *request, cfg.QueueSize)
	g.effQueue.Store(int64(cfg.QueueSize))
	g.wg.Add(1)
	go g.batchLoop()
	for i := 0; i < cfg.Workers; i++ {
		g.wg.Add(1)
		go g.workerLoop()
	}
	if cfg.SLOTarget > 0 {
		g.wg.Add(1)
		go g.brownoutLoop()
	}
	return g
}

// laneIdx maps a Priority onto its lane slot (high first).
func laneIdx(p Priority) int {
	if p == PriorityHigh {
		return 0
	}
	return 1
}

// Metrics exposes the gateway's registry. Counters: "serve.requests",
// "serve.shed.queue_full", "serve.shed.expired", "serve.timeouts",
// "serve.batches", "serve.batch_errors", why each batch left the batcher —
// "serve.flush.{worker_idle,full,width}" — and the demand-shaping series
// "serve.cache.{hits,misses,expired,evictions,coalesced,invalidations}".
// Gauges: "serve.queue_depth", "serve.inflight_batches", "serve.cache.size",
// "serve.cache.hit_rate_pct". Latency histograms: "serve.queue_wait",
// "serve.e2e", and "serve.dispatch_wait" (batch first offered → a worker
// took it, microseconds on an idle gateway, a service time on a saturated
// one). Value histogram: "serve.batch_size".
func (g *Gateway) Metrics() *metrics.Registry { return g.metrics }

// SetTracer installs (or, with nil, removes) the gateway's span collector.
// Install the master's tracer here so each "serve.batch" span and the
// cluster's "infer" subtree land in one ring.
func (g *Gateway) SetTracer(tr *trace.Tracer) { g.tr.Store(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (g *Gateway) Tracer() *trace.Tracer { return g.tr.Load() }

// Options tune one Predict call.
type Options struct {
	Priority Priority
}

// Predict queues x (rows × features, 1..MaxBatch rows) on the normal lane
// and blocks until its share of a dispatched batch scatters back, the
// context expires, or the gateway sheds it. The gateway only reads x, but a
// batch of one hands x itself to the backend, which may still be reading it
// after a Predict that timed out has returned: x is not the caller's to
// modify again.
func (g *Gateway) Predict(ctx context.Context, x *tensor.Tensor) (Result, error) {
	return g.PredictOpts(ctx, x, Options{})
}

// PredictOpts is Predict with an explicit priority lane.
func (g *Gateway) PredictOpts(ctx context.Context, x *tensor.Tensor, opts Options) (Result, error) {
	if x == nil || x.Rank() != 2 || x.Shape[0] < 1 || x.Shape[1] < 1 {
		return Result{}, fmt.Errorf("serve: input must be a non-empty rows×features tensor")
	}
	if x.Shape[0] > g.cfg.MaxBatch {
		return Result{}, fmt.Errorf("%w: %d rows > %d", ErrTooManyRows, x.Shape[0], g.cfg.MaxBatch)
	}
	if g.cfg.DefaultTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, g.cfg.DefaultTimeout)
			defer cancel()
		}
	}
	g.metrics.Counter("serve.requests").Inc()
	if g.shaped() {
		return g.predictShaped(ctx, x, opts)
	}
	return g.predictQueued(ctx, x, opts)
}

// predictQueued is the admission-queue path every non-cached, non-coalesced
// request (and every singleflight leader) takes: enqueue on the priority
// lane, wait for the scattered share or the deadline.
func (g *Gateway) predictQueued(ctx context.Context, x *tensor.Tensor, opts Options) (Result, error) {
	req := &request{x: x, ctx: ctx, enq: time.Now(), resc: make(chan response, 1)}

	// Admission: reject-on-full, never block the caller on a queue. The
	// brownout controller may have tightened the cap below the lane's
	// buffered capacity, so the depth check comes first.
	lane := g.lanes[laneIdx(opts.Priority)]
	if len(lane) >= int(g.effQueue.Load()) {
		g.metrics.Counter("serve.shed.queue_full").Inc()
		g.sloBurned()
		return Result{}, ErrQueueFull
	}
	select {
	case lane <- req:
		g.metrics.Gauge("serve.queue_depth").Inc()
	case <-g.quit:
		return Result{}, ErrClosed
	default:
		g.metrics.Counter("serve.shed.queue_full").Inc()
		g.sloBurned()
		return Result{}, ErrQueueFull
	}

	select {
	case r := <-req.resc:
		e2e := time.Since(req.enq)
		g.metrics.Observe("serve.e2e", e2e)
		g.sloFinished(e2e, r.err)
		return r.res, r.err
	case <-ctx.Done():
		// The request may still be queued (the batcher will shed it as
		// expired) or mid-batch (its row computes, nobody reads it); either
		// way this caller is done waiting.
		g.metrics.Counter("serve.timeouts").Inc()
		g.metrics.Observe("serve.e2e", time.Since(req.enq))
		g.sloBurned()
		return Result{}, ctx.Err()
	case <-g.quit:
		return Result{}, ErrClosed
	}
}

// --- SLO burn accounting and the brownout controller -----------------------

// sloFinished classifies one answered request against the SLO target.
func (g *Gateway) sloFinished(e2e time.Duration, err error) {
	if g.cfg.SLOTarget <= 0 {
		return
	}
	if err == nil && e2e <= g.cfg.SLOTarget {
		g.sloOK.Add(1)
	} else {
		g.sloMiss.Add(1)
	}
}

// sloBurned records one request that never got a timely answer.
func (g *Gateway) sloBurned() {
	if g.cfg.SLOTarget > 0 {
		g.sloMiss.Add(1)
	}
}

// brownoutMaxLevel bounds the tightening: at level 3 the queue cap sits at
// 1/8th of its configured value.
const brownoutMaxLevel = 3

// brownoutBurn is the burn-rate threshold that tightens the gateway: 10% of
// recent requests missing the SLO.
const brownoutBurn = 0.1

// brownoutLoop is the controller: every tick it reads the burn rate of the
// last window and tightens (burn above brownoutBurn) or relaxes (burn well
// below it, or no evidence of trouble) one level at a time. Level L maps to
// QueueSize>>L — under SLO pressure the gateway stops accepting queue depth
// it can no longer drain in time, shedding early instead of serving
// everything late.
func (g *Gateway) brownoutLoop() {
	defer g.wg.Done()
	const tick = 100 * time.Millisecond
	const minEvidence = 20 // requests per window before burn is trusted
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-g.quit:
			return
		}
		ok := g.sloOK.Swap(0)
		miss := g.sloMiss.Swap(0)
		total := ok + miss
		level := g.level.Load()
		switch {
		case total >= minEvidence && float64(miss)/float64(total) > brownoutBurn:
			if level < brownoutMaxLevel {
				level++
				g.metrics.Counter("serve.brownout.tightened").Inc()
			}
		case total < minEvidence || float64(miss)/float64(total) < brownoutBurn/4:
			if level > 0 {
				level--
				g.metrics.Counter("serve.brownout.relaxed").Inc()
			}
		}
		g.level.Store(level)
		g.metrics.Gauge("serve.brownout_level").Set(level)
		cap := g.cfg.QueueSize >> level
		if cap < 1 {
			cap = 1
		}
		g.effQueue.Store(int64(cap))
	}
}

// noteDequeue feeds the drain-rate estimate behind RetryAfter.
func (g *Gateway) noteDequeue() {
	g.metrics.Gauge("serve.queue_depth").Dec()
	g.dequeued.Add(1)
}

// RetryAfter estimates how long a rejected client should back off before
// the queue has drained: current depth over the recent dequeue rate,
// clamped into [1s, 30s]. With no drain observed yet it answers 1s.
func (g *Gateway) RetryAfter() time.Duration {
	depth := g.metrics.Gauge("serve.queue_depth").Value()
	now := time.Now()
	n := g.dequeued.Load()
	g.drainMu.Lock()
	if g.drainT.IsZero() {
		g.drainT, g.drainN = now, n
	} else if dt := now.Sub(g.drainT); dt >= 100*time.Millisecond {
		rate := float64(n-g.drainN) / dt.Seconds()
		if g.drainRate == 0 {
			g.drainRate = rate
		} else {
			g.drainRate = 0.5*g.drainRate + 0.5*rate
		}
		g.drainT, g.drainN = now, n
	}
	rate := g.drainRate
	g.drainMu.Unlock()
	if rate <= 0 || depth <= 0 {
		return time.Second
	}
	d := time.Duration(float64(depth) / rate * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Close stops the gateway: queued and not-yet-dispatched requests fail with
// ErrClosed, in-flight batches finish, workers drain, then Close returns.
// The backend is not closed — the gateway borrows it.
func (g *Gateway) Close() error {
	g.quitOnce.Do(func() { close(g.quit) })
	g.wg.Wait()
	return nil
}

// --- batcher ---------------------------------------------------------------

// batchLoop is the single coalescing goroutine, and it is work-conserving:
// block for a first request, take whatever else already waits, then offer
// the batch to the workers while still accepting arrivals. g.dispatch is
// unbuffered, so the offer succeeds exactly when a worker is free: a lone
// request on an idle gateway leaves at once, and batches grow only while
// every worker is busy — when coalescing buys throughput and costs no
// latency. A full batch, or one cut short by a feature-width change, only
// waits for a worker.
func (g *Gateway) batchLoop() {
	defer g.wg.Done()
	defer close(g.dispatch)
	var held *request // deferred to the next batch on a feature-width change
	for {
		first := held
		held = nil
		if first == nil {
			if first = g.nextRequest(); first == nil {
				g.drainLanes()
				return
			}
		}
		if g.shedExpired(first) {
			continue
		}
		batch := []*request{first}
		rows, width := first.x.Shape[0], first.x.Shape[1]
		for rows < g.cfg.MaxBatch && held == nil {
			req := g.pollRequest()
			if req == nil {
				break
			}
			held = g.join(&batch, &rows, width, req)
		}
		offered := time.Now()
		for sent := false; !sent; {
			lanes, flush := g.lanes, "serve.flush.worker_idle"
			if held != nil {
				lanes, flush = [2]chan *request{}, "serve.flush.width" // nil lanes: no more arrivals
			} else if rows >= g.cfg.MaxBatch {
				lanes, flush = [2]chan *request{}, "serve.flush.full"
			}
			var req *request
			select {
			case g.dispatch <- batch:
				g.metrics.Observe("serve.dispatch_wait", time.Since(offered))
				g.metrics.Counter(flush).Inc()
				sent = true
			case req = <-lanes[0]:
			case req = <-lanes[1]:
			case <-g.quit:
				if held != nil {
					batch = append(batch, held)
				}
				g.respondAll(batch, ErrClosed)
				g.drainLanes()
				return
			}
			if req != nil {
				g.noteDequeue()
				held = g.join(&batch, &rows, width, req)
			}
		}
	}
}

// join adds req to the batch, unless its caller is already gone (shed) or
// its feature width differs: mixed widths cannot share one tensor, so that
// request is returned to lead the next batch.
func (g *Gateway) join(batch *[]*request, rows *int, width int, req *request) (held *request) {
	if g.shedExpired(req) {
		return nil
	}
	if req.x.Shape[1] != width {
		return req
	}
	*batch = append(*batch, req)
	*rows += req.x.Shape[0]
	return nil
}

// pollRequest takes a request that already waits, high lane first; nil
// means both lanes are empty.
func (g *Gateway) pollRequest() *request {
	for _, lane := range g.lanes {
		select {
		case req := <-lane:
			g.noteDequeue()
			return req
		default:
		}
	}
	return nil
}

// nextRequest blocks for the first request of a batch, high lane first.
// nil means the gateway is closing.
func (g *Gateway) nextRequest() *request {
	if req := g.pollRequest(); req != nil {
		return req
	}
	var req *request
	select {
	case req = <-g.lanes[0]:
	case req = <-g.lanes[1]:
	case <-g.quit:
		return nil
	}
	g.noteDequeue()
	return req
}

// shedExpired drops a request whose caller already stopped waiting,
// before it costs a broadcast.
func (g *Gateway) shedExpired(r *request) bool {
	if err := r.ctx.Err(); err != nil {
		g.metrics.Counter("serve.shed.expired").Inc()
		r.resc <- response{err: err}
		return true
	}
	return false
}

// respondAll fails every member of a batch with err.
func (g *Gateway) respondAll(batch []*request, err error) {
	for _, r := range batch {
		r.resc <- response{err: err}
	}
}

// drainLanes fails everything still queued during shutdown.
func (g *Gateway) drainLanes() {
	for req := g.pollRequest(); req != nil; req = g.pollRequest() {
		req.resc <- response{err: ErrClosed}
	}
}

// --- dispatch workers ------------------------------------------------------

func (g *Gateway) workerLoop() {
	defer g.wg.Done()
	for batch := range g.dispatch {
		g.runBatch(batch)
	}
}

// batchDeadline resolves the coalesced batch's dispatch deadline: the
// LATEST member deadline, so the batch can serve its longest-lived member;
// rows whose own caller expires earlier are simply not read. A single
// member with no deadline unbounds the batch.
func batchDeadline(batch []*request) (time.Time, bool) {
	var latest time.Time
	for _, r := range batch {
		dl, ok := r.ctx.Deadline()
		if !ok {
			return time.Time{}, false
		}
		if dl.After(latest) {
			latest = dl
		}
	}
	return latest, true
}

// runBatch coalesces the batch's rows into one tensor, drives the backend,
// and scatters per-row results back to each caller. A batch of one request
// copies neither way: the backend computes on the caller's tensor and the
// caller gets the backend's answer.
func (g *Gateway) runBatch(batch []*request) {
	g.metrics.Gauge("serve.inflight_batches").Inc()
	defer g.metrics.Gauge("serve.inflight_batches").Dec()

	rows := 0
	for _, r := range batch {
		rows += r.x.Shape[0]
	}
	g.metrics.Counter("serve.batches").Inc()
	g.metrics.Counter("serve.batched_rows").Add(int64(rows))
	g.metrics.ValueHistogram("serve.batch_size").Observe(int64(rows))

	dispatchStart := time.Now()
	for _, r := range batch {
		g.metrics.Observe("serve.queue_wait", dispatchStart.Sub(r.enq))
	}

	// Gather: one contiguous rows×features tensor — the caller's own when the
	// batch is one request.
	x := batch[0].x
	if len(batch) > 1 {
		x = tensor.New(rows, x.Shape[1])
		off := 0
		for _, r := range batch {
			for i := 0; i < r.x.Shape[0]; i++ {
				copy(x.RowSlice(off), r.x.RowSlice(i))
				off++
			}
		}
	}

	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if dl, ok := batchDeadline(batch); ok {
		ctx, cancel = context.WithDeadline(ctx, dl)
	}
	defer cancel()

	tr := g.Tracer()
	span := tr.Start(trace.Context{}, "serve.batch")
	ctx = trace.NewContext(ctx, span.Ctx())

	probs, winners, live, nodes, err := g.inferGuarded(ctx, x)
	degraded := err == nil && live < nodes
	span.EndErr(err)
	if err == nil && (probs == nil || probs.Shape[0] != rows || len(winners) != rows) {
		err = fmt.Errorf("serve: backend returned %d result rows for a %d-row batch", resultRows(probs, winners), rows)
	}
	if err != nil {
		g.metrics.Counter("serve.batch_errors").Inc()
		g.scatterError(tr, span.Ctx(), batch, dispatchStart, err)
		return
	}
	ent := tensor.EntropyRows(probs)

	// Scatter: each caller gets exactly its own rows back — the backend's
	// whole answer when the batch is one request — plus a "serve.request"
	// span (queue wait as a child) linked under the batch.
	off := 0
	for _, r := range batch {
		n := r.x.Shape[0]
		res := Result{Probs: probs, Winners: winners, Entropy: ent.Data, Degraded: degraded, Live: live, Nodes: nodes}
		if len(batch) > 1 {
			res.Probs = tensor.New(n, probs.Shape[1])
			for i := 0; i < n; i++ {
				copy(res.Probs.RowSlice(i), probs.RowSlice(off+i))
			}
			res.Winners = append([]int(nil), winners[off:off+n]...)
			res.Entropy = append([]float64(nil), ent.Data[off:off+n]...)
		}
		if degraded {
			g.metrics.Counter("serve.degraded").Inc()
		}
		off += n
		reqSpan := tr.Record(span.Ctx(), "serve.request", "", "", r.enq, time.Since(r.enq))
		tr.Record(reqSpan, "queue.wait", "", "", r.enq, dispatchStart.Sub(r.enq))
		r.resc <- response{res: res}
	}
}

// quorumSoft derives the partial-answer deadline from the batch context:
// 80% of the time remaining, so the degraded answer is assembled and
// scattered before the slowest caller gives up. No deadline means no soft
// cutoff — the quorum path then degrades only around quarantined peers.
func quorumSoft(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return 0
	}
	return rem * 4 / 5
}

// inferGuarded drives the backend — its partial-ensemble path when it has
// one and Config.Degraded is set, else its strict one, whose answer is never
// degraded (live = nodes = 0) — with a panic guard: a model fed a batch it
// cannot take (e.g. a feature width the network was not built for) panics
// deep in the math layers, and without the recover that would kill the whole
// gateway process on one malformed-but-well-formed request. The panic
// becomes this batch's error ("serve.panics" counted); other batches are
// untouched.
func (g *Gateway) inferGuarded(ctx context.Context, x *tensor.Tensor) (probs *tensor.Tensor, winners []int, live, nodes int, err error) {
	defer func() {
		if r := recover(); r != nil {
			g.metrics.Counter("serve.panics").Inc()
			probs, winners, live, nodes = nil, nil, 0, 0
			err = fmt.Errorf("serve: inference panic: %v", r)
		}
	}()
	if db, ok := g.backend.(DegradedBackend); ok && g.cfg.Degraded {
		return db.InferQuorumContext(ctx, x, quorumSoft(ctx))
	}
	probs, winners, err = g.backend.InferContext(ctx, x)
	return probs, winners, 0, 0, err
}

// scatterError fails every member and records their spans with error
// status, so a failed batch is as visible in the ring as a served one.
func (g *Gateway) scatterError(tr *trace.Tracer, batchCtx trace.Context, batch []*request, dispatchStart time.Time, err error) {
	for _, r := range batch {
		reqSpan := tr.Record(batchCtx, "serve.request", "", trace.StatusError, r.enq, time.Since(r.enq))
		tr.Record(reqSpan, "queue.wait", "", "", r.enq, dispatchStart.Sub(r.enq))
		r.resc <- response{err: err}
	}
}

// resultRows sizes a malformed backend reply for the error message.
func resultRows(probs *tensor.Tensor, winners []int) int {
	if probs != nil {
		return probs.Shape[0]
	}
	return len(winners)
}
